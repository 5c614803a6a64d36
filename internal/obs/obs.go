// Package obs is the zero-dependency observability spine of the
// chatvisd fleet: distributed tracing with W3C-style traceparent
// propagation over context.Context, a bounded in-process trace store
// that preferentially retains slow and errored traces, structured
// logging helpers over log/slog, and runtime/build-info snapshots for
// the /metrics surface.
//
// The design is context-first: a *Tracer is placed on a context once
// (by the HTTP middleware at the front door, or by whoever owns the
// request), and every layer below simply calls
//
//	ctx, span := obs.Start(ctx, "llm.generate")
//	defer span.End()
//
// A context without a tracer produces spans that only time, so
// libraries instrumented with obs cost one context lookup and a clock
// read when tracing is off — the eval harness and CLI paths run
// untraced, and span end still times each stage.
//
// Spans cross process boundaries as `traceparent` headers
// (00-<trace>-<span>-01): the HTTP middleware extracts an incoming
// parent, and the cluster relay/remote-lookup clients inject the
// current one, so one trace ID stitches a request across every node
// it touches.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"
)

// TraceparentHeader is the W3C trace-context header carrying
// "00-<trace-id>-<span-id>-<flags>" across HTTP hops.
const TraceparentHeader = "Traceparent"

// TraceHeader is the response header naming the trace a request was
// recorded under, so clients (and error reports) can quote it.
const TraceHeader = "X-ChatVis-Trace"

// SpanContext is the propagated identity of a span: what travels in a
// traceparent header and what child spans parent under.
type SpanContext struct {
	TraceID string
	SpanID  string
}

// Valid reports whether the context names a real trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != "" && sc.SpanID != "" }

// Traceparent renders the W3C header value ("" when invalid).
func (sc SpanContext) Traceparent() string {
	if !sc.Valid() {
		return ""
	}
	return "00-" + sc.TraceID + "-" + sc.SpanID + "-01"
}

// ParseTraceparent reads a W3C traceparent header value. Only version
// 00 with well-formed lowercase-hex IDs is accepted.
func ParseTraceparent(h string) (SpanContext, bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) != 4 || parts[0] != "00" {
		return SpanContext{}, false
	}
	trace, span := parts[1], parts[2]
	if !isHex(trace, 32) || !isHex(span, 16) || trace == strings.Repeat("0", 32) {
		return SpanContext{}, false
	}
	return SpanContext{TraceID: trace, SpanID: span}, true
}

func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// newID returns n random bytes as lowercase hex.
func newID(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// crypto/rand failing is a broken platform; fall back to a
		// timestamp so tracing degrades instead of panicking.
		return fmt.Sprintf("%0*x", 2*n, uint64(time.Now().UnixNano()))
	}
	return hex.EncodeToString(b)
}

// NewTraceID mints a 16-byte trace ID.
func NewTraceID() string { return newID(16) }

// NewSpanID mints an 8-byte span ID.
func NewSpanID() string { return newID(8) }

// --- context plumbing --------------------------------------------------------

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
	loggerKey
	tenantKey
)

// WithTracer attaches a tracer to the context; Start below this point
// records real spans.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey, t)
}

// TracerFrom returns the context's tracer (nil when untraced).
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// WithSpanContext places a remote parent on the context: the next
// Start becomes a child of it (the HTTP middleware uses this for
// incoming traceparent headers).
func WithSpanContext(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanKey, sc)
}

// SpanContextFrom returns the current span identity on the context.
func SpanContextFrom(ctx context.Context) SpanContext {
	switch v := ctx.Value(spanKey).(type) {
	case *Span:
		if v != nil {
			return v.sc
		}
	case SpanContext:
		return v
	}
	return SpanContext{}
}

// TraceID returns the context's trace ID ("" when untraced).
func TraceID(ctx context.Context) string { return SpanContextFrom(ctx).TraceID }

// Traceparent renders the context's current span as a traceparent
// header value ("" when untraced) — what outbound cluster hops inject.
func Traceparent(ctx context.Context) string { return SpanContextFrom(ctx).Traceparent() }

// Detach returns a fresh context carrying only the observability state
// of ctx (tracer, span identity, logger, tenant) — no deadline and no
// cancellation. This is how async work (a queued job, a turn executing
// after the HTTP request returned 202) keeps its trace without
// inheriting the front door's cancellation.
func Detach(ctx context.Context) context.Context {
	return Graft(context.Background(), ctx)
}

// Graft copies the observability state (tracer, span identity, logger,
// tenant) of src onto dst, preserving dst's cancellation and deadline.
// Workers use it to run under their own lifecycle context while spans
// still land in the submitting request's trace.
func Graft(dst, src context.Context) context.Context {
	if t := TracerFrom(src); t != nil {
		dst = WithTracer(dst, t)
	}
	if sc := SpanContextFrom(src); sc.Valid() {
		dst = WithSpanContext(dst, sc)
	}
	if l, ok := src.Value(loggerKey).(*sLogger); ok && l != nil {
		dst = context.WithValue(dst, loggerKey, l)
	}
	if tn, ok := src.Value(tenantKey).(string); ok && tn != "" {
		dst = WithTenant(dst, tn)
	}
	return dst
}

// WithTenant records the tenant a request bills to, for log fields.
func WithTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, tenantKey, tenant)
}

// TenantFrom returns the context's tenant ("" when unset).
func TenantFrom(ctx context.Context) string {
	t, _ := ctx.Value(tenantKey).(string)
	return t
}

// --- spans -------------------------------------------------------------------

// SpanData is the recorded form of one span: what the trace API serves
// and what crosses nodes when traces are merged.
type SpanData struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	// Name identifies the operation ("http POST /v1/jobs", "llm.generate",
	// "plan.stage", ...).
	Name string `json:"name"`
	// Node is the fleet member that recorded the span.
	Node  string    `json:"node,omitempty"`
	Start time.Time `json:"start"`
	// Duration is the span's wall-clock time (nanoseconds in JSON,
	// matching the chatvis.Trace convention).
	Duration time.Duration `json:"duration_ns"`
	// Err is the failure message ("" on success).
	Err string `json:"error,omitempty"`
	// Attrs carry low-cardinality facts: model, token counts, cache/retry
	// provenance, stage class, peer node, HTTP status.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Span is one in-flight timed operation. An untraced span (no tracer on
// the context at Start) only times, and a nil *Span is inert: every
// method no-ops, so instrumented code never branches on "is tracing
// on".
type Span struct {
	tracer *Tracer
	sc     SpanContext

	mu    sync.Mutex
	data  SpanData
	ended bool
}

// Start begins a span named name as a child of the context's current
// span (or a new trace root when there is none) and returns a context
// carrying it. Without a tracer on the context it returns ctx unchanged
// and a span that only times: End reports its duration, but the span
// keeps no attributes and is exported nowhere.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, &Span{data: SpanData{Start: time.Now()}}
	}
	parent := SpanContextFrom(ctx)
	sc := SpanContext{TraceID: parent.TraceID, SpanID: NewSpanID()}
	if sc.TraceID == "" {
		sc.TraceID = NewTraceID()
	}
	sp := &Span{
		tracer: t,
		sc:     sc,
		data: SpanData{
			TraceID:  sc.TraceID,
			SpanID:   sc.SpanID,
			ParentID: parent.SpanID,
			Name:     name,
			Node:     t.node,
			Start:    time.Now(),
		},
	}
	t.spanStarted(sc.TraceID)
	return context.WithValue(ctx, spanKey, sp), sp
}

// Context returns the span's propagated identity (zero for nil spans).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// SetAttr records one key/value attribute on the span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil || s.tracer == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.data.Attrs == nil {
		s.data.Attrs = map[string]string{}
	}
	s.data.Attrs[key] = fmt.Sprint(value)
}

// SetError marks the span failed with err's message (nil err no-ops).
func (s *Span) SetError(err error) {
	if s == nil || s.tracer == nil || err == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.data.Err = err.Error()
	}
}

// Fail marks the span failed with a formatted message.
func (s *Span) Fail(format string, args ...any) {
	if s == nil || s.tracer == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.data.Err = fmt.Sprintf(format, args...)
	}
}

// End finishes the span, hands it to the tracer and returns its
// duration, the one clock of the operation it timed. Safe to call more
// than once; only the first call records, and every call returns the
// same duration (0 for a nil span).
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return s.data.Duration
	}
	s.ended = true
	s.data.Duration = time.Since(s.data.Start)
	data := s.data
	s.mu.Unlock()
	if s.tracer != nil {
		s.tracer.spanEnded(data)
	}
	return data.Duration
}
