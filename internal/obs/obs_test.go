package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	h := sc.Traceparent()
	got, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected its own output", h)
	}
	if got != sc {
		t.Fatalf("round trip mismatch: %+v != %+v", got, sc)
	}
	for _, bad := range []string{
		"", "00-xyz-abc-01", "01-" + sc.TraceID + "-" + sc.SpanID + "-01",
		"00-" + strings.Repeat("0", 32) + "-" + sc.SpanID + "-01",
		"00-" + sc.TraceID + "-" + sc.SpanID, // 3 parts
		"00-" + strings.ToUpper(sc.TraceID) + "-" + sc.SpanID + "-01",
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", bad)
		}
	}
}

func TestStartWithoutTracerIsInert(t *testing.T) {
	bg := context.Background()
	ctx, span := Start(bg, "noop")
	if ctx != bg {
		t.Fatalf("untraced Start changed the context")
	}
	if span == nil {
		t.Fatalf("untraced Start returned no span to time with")
	}
	span.SetAttr("k", "v")
	span.SetError(fmt.Errorf("x"))
	span.Fail("y")
	time.Sleep(time.Millisecond)
	d := span.End()
	if d < time.Millisecond {
		t.Fatalf("untraced span timed %v, want at least 1ms", d)
	}
	if again := span.End(); again != d {
		t.Fatalf("second End = %v, want the first's %v", again, d)
	}
	if span.data.Attrs != nil || span.data.Err != "" {
		t.Fatalf("untraced span kept attrs %v, error %q", span.data.Attrs, span.data.Err)
	}
	if id := TraceID(ctx); id != "" {
		t.Fatalf("untraced ctx has trace id %q", id)
	}
	// All nil-span methods must be safe.
	var none *Span
	none.SetAttr("k", "v")
	none.SetError(fmt.Errorf("x"))
	none.Fail("y")
	if d := none.End(); d != 0 {
		t.Fatalf("nil span End = %v", d)
	}
}

func TestSpanTreeAndRetention(t *testing.T) {
	tr := NewTracer("n0", 8)
	ctx := WithTracer(context.Background(), tr)

	ctx, root := Start(ctx, "root")
	cctx, child := Start(ctx, "child")
	child.SetAttr("model", "oracle")
	child.End()
	_ = cctx
	root.End()

	id := root.Context().TraceID
	td, ok := tr.Get(id)
	if !ok {
		t.Fatalf("trace %s not retained", id)
	}
	if len(td.Spans) != 2 {
		t.Fatalf("want 2 spans, got %d", len(td.Spans))
	}
	if td.Root != "root" {
		t.Fatalf("root span = %q", td.Root)
	}
	var childData SpanData
	for _, s := range td.Spans {
		if s.Name == "child" {
			childData = s
		}
	}
	if childData.ParentID != root.Context().SpanID {
		t.Fatalf("child parent = %q, want %q", childData.ParentID, root.Context().SpanID)
	}
	if childData.Attrs["model"] != "oracle" {
		t.Fatalf("child attrs = %v", childData.Attrs)
	}
	if childData.Node != "n0" {
		t.Fatalf("child node = %q", childData.Node)
	}
}

func TestTracerReopensTraceForAsyncSpans(t *testing.T) {
	tr := NewTracer("n0", 8)
	ctx := WithTracer(context.Background(), tr)

	ctx, root := Start(ctx, "http POST /v1/jobs")
	detached := Detach(ctx)
	root.End() // HTTP request returns 202 before the job runs

	_, work := Start(detached, "job.execute")
	work.SetError(fmt.Errorf("boom"))
	work.End()

	td, ok := tr.Get(root.Context().TraceID)
	if !ok {
		t.Fatalf("trace missing after async reopen")
	}
	if len(td.Spans) != 2 {
		t.Fatalf("want 2 spans after reopen, got %d", len(td.Spans))
	}
	if !td.Errored {
		t.Fatalf("trace should be errored")
	}
	if tr.Len() != 1 {
		t.Fatalf("trace counted %d times in finished ring", tr.Len())
	}
}

func TestRetentionPrefersSlowAndErrored(t *testing.T) {
	tr := NewTracer("n0", 4)
	ctx := WithTracer(context.Background(), tr)

	mk := func(name string, dur time.Duration, fail bool) string {
		_, sp := Start(ctx, name)
		sp.mu.Lock()
		sp.data.Start = time.Now().Add(-dur) // backdate instead of sleeping
		sp.mu.Unlock()
		if fail {
			sp.Fail("induced")
		}
		sp.End()
		return sp.Context().TraceID
	}

	slow := mk("slow", 5*time.Second, false)
	errored := mk("errored", time.Millisecond, true)
	for i := 0; i < 20; i++ {
		mk("fast", time.Millisecond, false)
	}

	if _, ok := tr.Get(slow); !ok {
		t.Errorf("slow trace evicted before fast ones")
	}
	if _, ok := tr.Get(errored); !ok {
		t.Errorf("errored trace evicted before fast ones")
	}
	if n := tr.Len(); n > 4 {
		t.Errorf("retained %d traces, capacity 4", n)
	}
	sums := tr.List(0, true, 0)
	if len(sums) != 1 || sums[0].TraceID != errored {
		t.Errorf("errors-only list = %+v", sums)
	}
	if got := tr.List(time.Second, false, 0); len(got) != 1 || got[0].TraceID != slow {
		t.Errorf("min-duration list = %+v", got)
	}
}

func TestMiddlewarePropagation(t *testing.T) {
	tr := NewTracer("n1", 8)
	var sawTrace, sawParent string
	h := Middleware(tr, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawTrace = TraceID(r.Context())
		sawParent = Traceparent(r.Context())
		w.WriteHeader(http.StatusTeapot)
	}))

	// Incoming traceparent joins the existing trace.
	up := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	req := httptest.NewRequest("GET", "/v1/jobs/abc", nil)
	req.Header.Set(TraceparentHeader, up.Traceparent())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	if sawTrace != up.TraceID {
		t.Fatalf("handler trace %q, want inherited %q", sawTrace, up.TraceID)
	}
	if got := rec.Header().Get(TraceHeader); got != up.TraceID {
		t.Fatalf("%s header = %q, want %q", TraceHeader, got, up.TraceID)
	}
	sc, ok := ParseTraceparent(sawParent)
	if !ok || sc.TraceID != up.TraceID || sc.SpanID == up.SpanID {
		t.Fatalf("handler traceparent %q should be a new span on trace %s", sawParent, up.TraceID)
	}

	td, ok := tr.Get(up.TraceID)
	if !ok || len(td.Spans) != 1 {
		t.Fatalf("server span not recorded: %+v", td)
	}
	if td.Spans[0].Attrs["http.status"] != "418" {
		t.Fatalf("span attrs = %v", td.Spans[0].Attrs)
	}
}

func TestMiddlewareFlusherPassthrough(t *testing.T) {
	tr := NewTracer("n1", 8)
	h := Middleware(tr, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := w.(http.Flusher); !ok {
			t.Errorf("middleware writer does not implement http.Flusher; SSE would break")
		}
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/sessions/x/events", nil))
}

func TestGraftPreservesCancellation(t *testing.T) {
	tr := NewTracer("n0", 8)
	src := WithTenant(WithTracer(context.Background(), tr), "acme")
	src, sp := Start(src, "root")
	defer sp.End()

	base, cancel := context.WithCancel(context.Background())
	g := Graft(base, src)
	if TraceID(g) != sp.Context().TraceID {
		t.Fatalf("graft lost trace identity")
	}
	if TenantFrom(g) != "acme" {
		t.Fatalf("graft lost tenant")
	}
	cancel()
	if g.Err() == nil {
		t.Fatalf("grafted ctx must follow dst cancellation")
	}
}

func TestLoggerFields(t *testing.T) {
	var buf bytes.Buffer
	logger := NewLogger(&buf, "info", "json")
	tr := NewTracer("n2", 8)
	ctx := WithLogger(WithTenant(WithTracer(context.Background(), tr), "acme"), logger)
	ctx, sp := Start(ctx, "op")
	Log(ctx).Info("hello")
	sp.End()

	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log line not JSON: %v (%q)", err, buf.String())
	}
	if rec["trace_id"] != sp.Context().TraceID || rec["node"] != "n2" || rec["tenant"] != "acme" {
		t.Fatalf("log fields = %v", rec)
	}
	// Debug suppressed at info level.
	buf.Reset()
	Log(ctx).Debug("quiet")
	if buf.Len() != 0 {
		t.Fatalf("debug line emitted at info level: %q", buf.String())
	}
}

func TestTracerConcurrentUse(t *testing.T) {
	tr := NewTracer("n0", 32)
	root := WithTracer(context.Background(), tr)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				ctx, sp := Start(root, "op")
				_, c := Start(ctx, "child")
				c.SetAttr("i", i)
				c.End()
				sp.End()
			}
		}(i)
	}
	wg.Wait()
	if tr.Len() == 0 || tr.Len() > 32 {
		t.Fatalf("retained %d traces, capacity 32", tr.Len())
	}
}

func TestRuntimeStatsAndBuildInfo(t *testing.T) {
	rs := readRuntimeStats()
	if rs.Goroutines <= 0 || rs.HeapAllocBytes == 0 {
		t.Fatalf("implausible runtime stats: %+v", rs)
	}
	bi := ReadBuildInfo("v1.2.3")
	if bi.Version != "v1.2.3" || !strings.HasPrefix(bi.GoVersion, "go") {
		t.Fatalf("build info = %+v", bi)
	}
	if ReadBuildInfo("").Version == "" {
		t.Fatalf("empty fallback version")
	}
}
