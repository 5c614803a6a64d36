package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chatvis/internal/chatvis"
	"chatvis/internal/llm"
	"chatvis/internal/pvsim"
	"chatvis/internal/route"
)

// --- key construction --------------------------------------------------------

func TestKeyDistinctAcrossInputs(t *testing.T) {
	base := JobRequest{Prompt: "isosurface of var0 at 0.5"}
	variants := []JobRequest{
		base,
		{Prompt: "isosurface of var0 at 0.6"},
		{Prompt: "isosurface of var0 at 0.5", Model: "oracle"},
		{Prompt: "isosurface of var0 at 0.5", Width: 640, Height: 360},
		{Prompt: "isosurface of var0 at 0.5", Width: 1920, Height: 1080},
		{Prompt: "isosurface of var0 at 0.5", MaxIterations: 3},
		{Prompt: "isosurface of var0 at 0.5", FewShot: -1},
		{Prompt: "isosurface of var0 at 0.5", NoRewrite: true},
		{Prompt: "isosurface of var0 at 0.5", Unassisted: true},
	}
	seen := map[string]int{}
	for i, v := range variants {
		k := Key(v)
		if len(k) != 64 {
			t.Fatalf("key %d not a sha256 hex: %q", i, k)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("variants %d and %d collide: %+v vs %+v", prev, i, variants[prev], v)
		}
		seen[k] = i
	}
}

func TestKeyNormalizesDefaults(t *testing.T) {
	implicit := JobRequest{Prompt: "p"}
	explicit := JobRequest{Prompt: "p", Model: "gpt-4", Width: 480, Height: 270, MaxIterations: 5}
	if Key(implicit) != Key(explicit) {
		t.Error("spelled-out defaults must produce the same key as omitted ones")
	}
	if Key(implicit) != Key(implicit) {
		t.Error("key must be deterministic")
	}
}

// TestStoreTornObjectIsAMissThatPutRepairs: an object torn on disk (a
// crash mid-write) fails its hash check, so Get misses rather than
// serving it, whether the store indexed it by a Put or by loading the
// directory at boot; the next Put of the same bytes rewrites it.
func TestStoreTornObjectIsAMissThatPutRepairs(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("\x89PNG torn object "), 64)
	for _, reboot := range []bool{false, true} {
		h, err := s.Put(content, "image/png")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(s.objectPath(h, "image/png"), int64(len(content)/2)); err != nil {
			t.Fatal(err)
		}
		if reboot {
			if s, err = NewStore(dir); err != nil {
				t.Fatal(err)
			}
		}
		if b, _, err := s.Get(h); err == nil {
			t.Fatalf("reboot=%v: Get served a torn object (%d of %d bytes)", reboot, len(b), len(content))
		}
		if st := s.Stats(); st.Objects != 0 || st.Bytes != 0 {
			t.Errorf("reboot=%v: the torn object is still indexed: %+v", reboot, st)
		}
		if _, err := s.Put(content, "image/png"); err != nil {
			t.Fatal(err)
		}
		got, _, err := s.Get(h)
		if err != nil || !bytes.Equal(got, content) {
			t.Fatalf("reboot=%v: after the repairing Put, Get = %d bytes, %v", reboot, len(got), err)
		}
	}
}

func TestKeyFieldFraming(t *testing.T) {
	// Length framing: moving bytes across a field boundary must change
	// the key even though the concatenation is identical.
	a := JobRequest{Prompt: "ab", Model: "cd"}
	b := JobRequest{Prompt: "abc", Model: "d"}
	if Key(a) == Key(b) {
		t.Error("field boundary shift must not collide")
	}
}

// --- store -------------------------------------------------------------------

func TestStoreRoundTripAndDedup(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("from paraview.simple import *\n")
	h1, err := s.Put(content, "text/x-python")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := s.Put(content, "text/x-python")
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("same content, different hashes: %s vs %s", h1, h2)
	}
	if st := s.Stats(); st.Objects != 1 {
		t.Errorf("dedup failed: %d objects", st.Objects)
	}
	got, info, err := s.Get(h1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) || info.ContentType != "text/x-python" {
		t.Errorf("round trip mismatch: %q %q", got, info.ContentType)
	}
	if _, _, err := s.Get(strings.Repeat("0", 64)); err == nil {
		t.Error("unknown hash should fail")
	}

	res := &Result{Key: Key(JobRequest{Prompt: "p"}), Model: "gpt-4", Success: true, ScriptHash: h1}
	if err := s.PutResult(res); err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same directory reloads both indexes.
	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Has(h1) {
		t.Error("reloaded store lost the object index")
	}
	got2, info2, err := s2.Get(h1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, content) || info2.ContentType != "text/x-python" {
		t.Error("reloaded store serves wrong content or type")
	}
	r2, ok := s2.GetResult(res.Key)
	if !ok || r2.ScriptHash != h1 || !r2.Success {
		t.Errorf("reloaded store lost the result index: %+v", r2)
	}
}

// --- queue -------------------------------------------------------------------

// stubPipeline is a controllable PipelineFunc counting executions.
type stubPipeline struct {
	executions atomic.Int64
	// gate, when non-nil, blocks executions until released.
	gate chan struct{}
	// fail makes executions return an error.
	fail bool
	// block, when true, waits for ctx cancellation instead of returning.
	block bool
	// screenshot, when true, saves one fixed PNG through the sink.
	screenshot bool
}

func (p *stubPipeline) run(ctx context.Context, req JobRequest, shots pvsim.ScreenshotSink) (*chatvis.Artifact, error) {
	p.executions.Add(1)
	if p.gate != nil {
		select {
		case <-p.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if p.block {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if p.fail {
		return nil, fmt.Errorf("stub pipeline failure")
	}
	art := &chatvis.Artifact{
		UserPrompt:  req.Prompt,
		FinalScript: "print('script for: " + req.Prompt + "')\n",
		Success:     true,
		Iterations:  []chatvis.Iteration{{Script: "s"}},
	}
	if p.screenshot {
		ref, err := shots.PutScreenshot("shot.png", []byte("\x89PNG stub screenshot for: "+req.Prompt))
		if err != nil {
			return nil, err
		}
		art.Screenshots = []string{ref}
	}
	return art, nil
}

func newTestQueue(t *testing.T, p *stubPipeline, workers int) *Queue {
	t.Helper()
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(QueueOptions{Workers: workers, Pipeline: p.run, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = q.Shutdown(ctx)
	})
	return q
}

func waitJob(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s stuck in %s", j.ID, j.Status())
	}
}

func TestQueueRunsJobAndStoresResult(t *testing.T) {
	p := &stubPipeline{}
	q := newTestQueue(t, p, 2)
	job, outcome, err := q.Submit(JobRequest{Prompt: "hello"})
	if err != nil {
		t.Fatal(err)
	}
	if outcome != SubmissionNew {
		t.Fatalf("outcome = %s", outcome)
	}
	waitJob(t, job)
	if job.Status() != StatusSucceeded {
		t.Fatalf("status = %s err = %s", job.Status(), job.Err())
	}
	res := job.Result()
	if res == nil || res.ScriptHash == "" || res.ArtifactHash == "" {
		t.Fatalf("result incomplete: %+v", res)
	}
	script, _, err := q.store.Get(res.ScriptHash)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(script), "script for: hello") {
		t.Errorf("stored script = %q", script)
	}
	encoded, _, err := q.store.Get(res.ArtifactHash)
	if err != nil {
		t.Fatal(err)
	}
	art, err := chatvis.DecodeArtifact(encoded)
	if err != nil {
		t.Fatal(err)
	}
	if art.UserPrompt != "hello" || !art.Success {
		t.Errorf("decoded artifact mismatch: %+v", art)
	}
}

func TestQueueCoalescesIdenticalSubmissions(t *testing.T) {
	p := &stubPipeline{gate: make(chan struct{})}
	q := newTestQueue(t, p, 4)

	const n = 16
	req := JobRequest{Prompt: "coalesce me"}
	first, outcome, err := q.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != SubmissionNew {
		t.Fatalf("first submit = %s", outcome)
	}
	var wg sync.WaitGroup
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job, out, err := q.Submit(req)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			if out != SubmissionCoalesced {
				t.Errorf("submit %d outcome = %s", i, out)
			}
			ids[i] = job.ID
		}(i)
	}
	wg.Wait()
	for i, id := range ids {
		if id != first.ID {
			t.Errorf("submission %d got job %s, want %s", i, id, first.ID)
		}
	}
	close(p.gate)
	waitJob(t, first)
	if got := p.executions.Load(); got != 1 {
		t.Errorf("executions = %d, want 1 (coalesced)", got)
	}
	if first.Coalesced() != n {
		t.Errorf("coalesced count = %d, want %d", first.Coalesced(), n)
	}

	// A repeat submission after completion is a store hit: no queueing,
	// no execution, immediately terminal.
	job2, out2, err := q.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if out2 != SubmissionStoreHit {
		t.Fatalf("repeat outcome = %s", out2)
	}
	if job2.Status() != StatusSucceeded || !job2.FromStore() {
		t.Errorf("store-hit job: status=%s fromStore=%v", job2.Status(), job2.FromStore())
	}
	if got := p.executions.Load(); got != 1 {
		t.Errorf("executions after store hit = %d, want 1", got)
	}
	// Distinct prompts never coalesce.
	other, out3, err := q.Submit(JobRequest{Prompt: "different"})
	if err != nil {
		t.Fatal(err)
	}
	if out3 != SubmissionNew || other.ID == first.ID {
		t.Errorf("distinct request coalesced: %s %s", out3, other.ID)
	}
	waitJob(t, other)
}

func TestQueueFailedJobAllowsRetry(t *testing.T) {
	p := &stubPipeline{fail: true}
	q := newTestQueue(t, p, 1)
	req := JobRequest{Prompt: "flaky"}
	job, _, err := q.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, job)
	if job.Status() != StatusFailed || job.Err() == "" {
		t.Fatalf("status = %s err = %q", job.Status(), job.Err())
	}
	// The failed job must not absorb the retry.
	p.fail = false
	retry, outcome, err := q.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != SubmissionNew || retry.ID == job.ID {
		t.Errorf("retry after failure: outcome=%s id=%s (failed id %s)", outcome, retry.ID, job.ID)
	}
	waitJob(t, retry)
	if retry.Status() != StatusSucceeded {
		t.Errorf("retry status = %s", retry.Status())
	}
}

// TestQueueStoreHitNeedsEveryObject pins that a stored result is only
// a store hit while every object it names is still stored: with one
// screenshot deleted, a resubmission executes again and its result
// replaces the stale one.
func TestQueueStoreHitNeedsEveryObject(t *testing.T) {
	dir := t.TempDir()
	p := &stubPipeline{screenshot: true}
	open := func() *Queue {
		store, err := NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		q, err := NewQueue(QueueOptions{Workers: 1, Pipeline: p.run, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = q.Shutdown(ctx)
		})
		return q
	}
	req := JobRequest{Prompt: "stale screenshot"}
	q := open()
	job, _, err := q.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, job)
	res := job.Result()
	if res == nil || len(res.ScreenshotHashes) != 1 {
		t.Fatalf("first run stored no screenshot: %+v", res)
	}
	if err := os.Remove(q.store.objectPath(res.ScreenshotHashes[0], "image/png")); err != nil {
		t.Fatal(err)
	}

	q = open()
	job, outcome, err := q.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != SubmissionNew {
		t.Fatalf("resubmission over a result with a missing screenshot = %s, want %s", outcome, SubmissionNew)
	}
	waitJob(t, job)
	if got := p.executions.Load(); got != 2 {
		t.Fatalf("%d executions, want 2", got)
	}
	res = job.Result()
	if res == nil || job.Status() != StatusSucceeded {
		t.Fatalf("re-execution: status %s, result %+v", job.Status(), res)
	}
	for _, h := range append([]string{res.ScriptHash, res.ArtifactHash}, res.ScreenshotHashes...) {
		if _, _, err := q.store.Get(h); err != nil {
			t.Errorf("new result names an object that does not Get: %v", err)
		}
	}
	if _, outcome, err := q.Submit(req); err != nil || outcome != SubmissionStoreHit {
		t.Fatalf("submission after the repair = %s, %v; want %s", outcome, err, SubmissionStoreHit)
	}
	if got := p.executions.Load(); got != 2 {
		t.Errorf("the repaired result was not a store hit: %d executions", got)
	}
}

func TestQueueGracefulDrain(t *testing.T) {
	p := &stubPipeline{}
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(QueueOptions{Workers: 2, Pipeline: p.run, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*Job
	for i := 0; i < 8; i++ {
		job, _, err := q.Submit(JobRequest{Prompt: fmt.Sprintf("drain-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := q.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	for _, j := range jobs {
		if j.Status() != StatusSucceeded {
			t.Errorf("job %s not drained: %s", j.ID, j.Status())
		}
	}
	if _, _, err := q.Submit(JobRequest{Prompt: "late"}); err != ErrQueueClosed {
		t.Errorf("submit after shutdown = %v, want ErrQueueClosed", err)
	}
}

func TestQueueForcedShutdownCancelsInFlight(t *testing.T) {
	p := &stubPipeline{block: true}
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(QueueOptions{Workers: 1, Pipeline: p.run, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	job, _, err := q.Submit(JobRequest{Prompt: "stuck"})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick it up so cancellation targets a
	// running pipeline.
	deadline := time.Now().Add(5 * time.Second)
	for job.Status() != StatusRunning && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := q.Shutdown(ctx); err == nil {
		t.Error("forced shutdown should report ctx error")
	}
	waitJob(t, job)
	if job.Status() != StatusCanceled {
		t.Errorf("in-flight job after forced shutdown = %s", job.Status())
	}
}

func TestJobCancelWhileQueued(t *testing.T) {
	p := &stubPipeline{gate: make(chan struct{})}
	q := newTestQueue(t, p, 1)
	// Occupy the single worker...
	blocker, _, err := q.Submit(JobRequest{Prompt: "occupy"})
	if err != nil {
		t.Fatal(err)
	}
	// ...so the second job sits queued when canceled.
	victim, _, err := q.Submit(JobRequest{Prompt: "victim"})
	if err != nil {
		t.Fatal(err)
	}
	victim.Cancel()
	if victim.Status() != StatusCanceled {
		t.Fatalf("canceled queued job = %s", victim.Status())
	}
	close(p.gate)
	waitJob(t, blocker)
	if got := p.executions.Load(); got != 1 {
		t.Errorf("canceled job executed: %d executions", got)
	}
}

// --- HTTP API ----------------------------------------------------------------

func newTestServer(t *testing.T, p *stubPipeline) (*httptest.Server, *Queue) {
	t.Helper()
	q := newTestQueue(t, p, 4)
	srv := httptest.NewServer(NewServer(q, q.store, &llm.Metrics{}).Handler())
	t.Cleanup(srv.Close)
	return srv, q
}

func postJob(t *testing.T, url string, req JobRequest) (submitResponse, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out submitResponse
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func pollJob(t *testing.T, base, id string) View {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var v View
		if code := getJSON(t, base+"/v1/jobs/"+id, &v); code != http.StatusOK {
			t.Fatalf("GET job %s: %d", id, code)
		}
		if v.Status.Terminal() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return View{}
}

func TestHTTPSubmitPollAndFetchArtifact(t *testing.T) {
	srv, _ := newTestServer(t, &stubPipeline{})
	sub, code := postJob(t, srv.URL, JobRequest{Prompt: "make an isosurface"})
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	if sub.ID == "" || sub.Key == "" || sub.Submission != SubmissionNew {
		t.Fatalf("submit response: %+v", sub)
	}
	v := pollJob(t, srv.URL, sub.ID)
	if v.Status != StatusSucceeded || v.Result == nil {
		t.Fatalf("job view: %+v", v)
	}
	if len(v.Result.Trace.Stages) != 0 {
		// The stub artifact has no trace stages; real pipelines fill it.
		t.Logf("trace: %+v", v.Result.Trace)
	}
	resp, err := http.Get(srv.URL + "/v1/artifacts/" + v.Result.ScriptHash)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET artifact = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/x-python" {
		t.Errorf("artifact content type = %q", ct)
	}
	script, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(script), "make an isosurface") {
		t.Errorf("artifact body = %q", script)
	}
}

func TestHTTPCoalescing(t *testing.T) {
	p := &stubPipeline{gate: make(chan struct{})}
	srv, q := newTestServer(t, p)
	req := JobRequest{Prompt: "identical burst"}

	first, code := postJob(t, srv.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	const n = 12
	var wg sync.WaitGroup
	ids := make([]string, n)
	subs := make([]Submission, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sub, code := postJob(t, srv.URL, req)
			if code != http.StatusAccepted {
				t.Errorf("POST %d = %d", i, code)
				return
			}
			ids[i], subs[i] = sub.ID, sub.Submission
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if ids[i] != first.ID || subs[i] != SubmissionCoalesced {
			t.Errorf("burst %d: id=%s sub=%s (want %s coalesced)", i, ids[i], subs[i], first.ID)
		}
	}
	close(p.gate)
	pollJob(t, srv.URL, first.ID)
	if got := p.executions.Load(); got != 1 {
		t.Errorf("executions = %d, want 1", got)
	}

	// Repeat POST after completion: answered 200 from the store.
	again, code := postJob(t, srv.URL, req)
	if code != http.StatusOK || again.Submission != SubmissionStoreHit {
		t.Errorf("repeat POST: code=%d submission=%s", code, again.Submission)
	}
	snap := q.Snapshot()
	if snap.Coalesced != n || snap.StoreHits != 1 || snap.Executed != 1 {
		t.Errorf("metrics: %+v", snap)
	}
}

func TestHTTPValidationAndNotFound(t *testing.T) {
	srv, _ := newTestServer(t, &stubPipeline{})
	if _, code := postJob(t, srv.URL, JobRequest{}); code != http.StatusBadRequest {
		t.Errorf("empty prompt = %d", code)
	}
	if _, code := postJob(t, srv.URL, JobRequest{Prompt: "p", Model: "nope"}); code != http.StatusBadRequest {
		t.Errorf("unknown model = %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/jobs/job-999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job = %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/artifacts/"+strings.Repeat("a", 64), nil); code != http.StatusNotFound {
		t.Errorf("unknown artifact = %d", code)
	}
}

func TestHTTPScenariosHealthMetrics(t *testing.T) {
	srv, _ := newTestServer(t, &stubPipeline{})

	var scns struct {
		Scenarios []scenarioView `json:"scenarios"`
	}
	if code := getJSON(t, srv.URL+"/v1/scenarios?width=640&height=360", &scns); code != http.StatusOK {
		t.Fatalf("GET scenarios = %d", code)
	}
	if len(scns.Scenarios) != 12 {
		t.Fatalf("scenarios = %d, want 12", len(scns.Scenarios))
	}
	byID := map[string]scenarioView{}
	for _, s := range scns.Scenarios {
		byID[s.ID] = s
	}
	for _, id := range []string{"iso", "clip", "threshold", "glyph"} {
		s, ok := byID[id]
		if !ok {
			t.Errorf("missing scenario %s", id)
			continue
		}
		if !strings.Contains(s.Prompt, "640 x 360 pixels") {
			t.Errorf("%s prompt ignores requested resolution", id)
		}
	}

	var health map[string]any
	if code := getJSON(t, srv.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("GET healthz = %d", code)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz = %+v", health)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"chatvis_jobs_submitted_total",
		"chatvis_jobs_coalesced_total",
		"chatvis_jobs_store_hits_total",
		"chatvis_queue_depth",
		"chatvis_job_duration_seconds_bucket{le=\"+Inf\"}",
		"chatvis_store_objects",
		"chatvis_llm_calls_total",
		// Sweep-scheduler telemetry of the parallel compute substrate.
		"chatvis_compute_workers",
		"chatvis_par_parallelism",
		"chatvis_par_sweeps_total",
		"chatvis_par_chunks_total",
		"chatvis_par_busy_seconds_total",
		"chatvis_par_imbalance_avg",
		// Runtime and identity series ride every scrape.
		"chatvis_go_goroutines",
		"chatvis_go_heap_alloc_bytes",
		"chatvis_go_gc_cycles_total",
		"chatvis_build_info{",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %s", want)
		}
	}

	// Scrape-format contract: each family declares HELP and TYPE exactly
	// once, and the Prometheus text format carries no exemplar syntax
	// (that is OpenMetrics-only; see TestMetricsOpenMetricsExemplars).
	seen := map[string]int{}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			seen[strings.Join(strings.Fields(line)[:3], " ")]++
		}
		if strings.Contains(line, "} # {") || strings.Contains(line, " # {") {
			t.Errorf("plain-text scrape leaked exemplar syntax: %s", line)
		}
	}
	for decl, n := range seen {
		if n > 1 {
			t.Errorf("%s declared %d times, want 1", decl, n)
		}
	}
}

// --- cache + coalescing composition ------------------------------------------

// TestCacheAndCoalescingCompose runs the real ChatVis pipeline through
// the queue and shows the two dedup layers stacking: identical requests
// are answered by coalescing/store (zero LLM calls), while a request
// that differs only in a non-prompt option (a distinct job key) re-runs
// the pipeline but is fully served by the shared LLM response cache.
func TestCacheAndCoalescingCompose(t *testing.T) {
	metrics := &llm.Metrics{}
	pipeline := NewChatVisPipeline(PipelineConfig{
		DataDir: t.TempDir(),
		Metrics: metrics,
	})
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(QueueOptions{Workers: 2, Pipeline: pipeline, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = q.Shutdown(ctx)
	}()

	prompt := "Please generate a ParaView Python script for the following operations. Read in the file named ml-100.vtk. Generate an isosurface of the variable var0 at value 0.5. Save a screenshot of the result in the filename iso.png. The rendered view and saved screenshot should be 320 x 180 pixels."
	reqA := JobRequest{Prompt: prompt, Model: "oracle", Width: 320, Height: 180}

	jobA, _, err := q.Submit(reqA)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, jobA)
	if jobA.Status() != StatusSucceeded {
		t.Fatalf("job A: %s %s", jobA.Status(), jobA.Err())
	}
	after := metrics.Snapshot()
	if after.Calls == 0 {
		t.Fatal("pipeline made no LLM calls?")
	}
	if after.CacheHits != 0 {
		t.Fatalf("first run should miss the cache: %+v", after)
	}

	// Identical request: store hit, zero new LLM calls.
	jobB, outcome, err := q.Submit(reqA)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != SubmissionStoreHit {
		t.Fatalf("identical resubmit = %s", outcome)
	}
	if jobB.Result().ScriptHash != jobA.Result().ScriptHash {
		t.Error("store hit returned a different script")
	}
	if got := metrics.Snapshot().Calls; got != after.Calls {
		t.Errorf("store hit made LLM calls: %d -> %d", after.Calls, got)
	}

	// Different MaxIterations: a different job key (no coalescing), but
	// every LLM stage repeats verbatim, so the shared response cache
	// serves all of them — composition of the two layers.
	reqC := reqA
	reqC.MaxIterations = 3
	if Key(reqC) == Key(reqA) {
		t.Fatal("option change must change the job key")
	}
	jobC, outcome, err := q.Submit(reqC)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != SubmissionNew {
		t.Fatalf("option variant = %s", outcome)
	}
	waitJob(t, jobC)
	if jobC.Status() != StatusSucceeded {
		t.Fatalf("job C: %s %s", jobC.Status(), jobC.Err())
	}
	final := metrics.Snapshot()
	newCalls := final.Calls - after.Calls
	if newCalls == 0 {
		t.Fatal("option variant should re-run the pipeline")
	}
	if final.CacheHits != newCalls {
		t.Errorf("all %d repeated stages should be cache hits, got %d",
			newCalls, final.CacheHits)
	}
	// Content addressing: the identical final script dedups in the store.
	if jobC.Result().ScriptHash != jobA.Result().ScriptHash {
		t.Error("identical scripts should share one stored object")
	}
}

func TestCancelSharedJobNeedsAllSubmitters(t *testing.T) {
	p := &stubPipeline{gate: make(chan struct{})}
	q := newTestQueue(t, p, 1)
	req := JobRequest{Prompt: "shared"}
	job, _, err := q.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, out, err := q.Submit(req); err != nil || out != SubmissionCoalesced {
		t.Fatalf("second submit: %s %v", out, err)
	}
	// One of two submitters withdraws: the shared execution survives.
	job.Cancel()
	select {
	case <-job.Done():
		t.Fatal("single cancel killed a job two clients share")
	case <-time.After(20 * time.Millisecond):
	}
	// The second withdrawal aborts it.
	job.Cancel()
	close(p.gate)
	waitJob(t, job)
	if st := job.Status(); st != StatusCanceled {
		t.Errorf("after all submitters canceled: %s", st)
	}
}

func TestQueueEvictsOldTerminalJobs(t *testing.T) {
	p := &stubPipeline{}
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(QueueOptions{Workers: 2, Pipeline: p.run, Store: store, RetainJobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = q.Shutdown(ctx)
	}()
	var last *Job
	for i := 0; i < 12; i++ {
		job, _, err := q.Submit(JobRequest{Prompt: fmt.Sprintf("evict-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, job)
		last = job
	}
	if n := len(q.Jobs()); n > 4 {
		t.Errorf("retained %d job records, want <= 4", n)
	}
	if _, ok := q.Get("job-1"); ok {
		t.Error("oldest terminal job should be evicted")
	}
	if _, ok := q.Get(last.ID); !ok {
		t.Error("newest job must survive eviction")
	}
	// Evicted keys still serve from the store.
	if _, out, err := q.Submit(JobRequest{Prompt: "evict-0"}); err != nil || out != SubmissionStoreHit {
		t.Errorf("evicted key resubmit: %s %v", out, err)
	}
}

// --- model routing over HTTP -------------------------------------------------

// TestRoutedServerModelsAndMetrics attaches a router built from a
// synthetic profile set and checks both serving surfaces: /v1/models
// reports the live route state, and /metrics exposes the
// chatvis_route_* families — including zero-valued labeled series for
// every ladder pair, so dashboards see the full shape before traffic.
func TestRoutedServerModelsAndMetrics(t *testing.T) {
	q := newTestQueue(t, &stubPipeline{}, 2)
	router := route.NewRouter(route.NewProfileSet([]route.ModelProfile{
		{Model: "codegemma", Task: llm.TaskEditIntent, Score: 1.0, CostWeight: 0.04, Seq: 1},
		{Model: "gpt-4", Task: llm.TaskWrite, Score: 0.9, CostWeight: 1.0, Seq: 2},
	}), nil)
	srv := httptest.NewServer(NewServer(q, q.store, &llm.Metrics{}).
		WithRouter(router, "profiles.json").Handler())
	t.Cleanup(srv.Close)

	var models struct {
		Models  []string `json:"models"`
		Routing struct {
			Enabled      bool              `json:"enabled"`
			ProfilesPath string            `json:"profiles_path"`
			Tasks        []route.RouteView `json:"tasks"`
		} `json:"routing"`
	}
	if code := getJSON(t, srv.URL+"/v1/models", &models); code != http.StatusOK {
		t.Fatalf("GET /v1/models = %d", code)
	}
	if len(models.Models) == 0 {
		t.Error("no registered models reported")
	}
	if !models.Routing.Enabled || models.Routing.ProfilesPath != "profiles.json" {
		t.Errorf("routing block = %+v", models.Routing)
	}
	if len(models.Routing.Tasks) != 2 {
		t.Fatalf("route views = %d, want 2", len(models.Routing.Tasks))
	}
	if v := models.Routing.Tasks[0]; v.Task != llm.TaskEditIntent || v.Ladder[0].Model != "codegemma" {
		t.Errorf("first route view = %+v", v)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"chatvis_route_decisions_total 0",
		"chatvis_route_escalations_total 0",
		"chatvis_route_fallbacks_total 0",
		"chatvis_route_profiles 2",
		`chatvis_route_task_decisions_total{task="edit-intent",model="codegemma"} 0`,
		`chatvis_route_task_decisions_total{task="write",model="gpt-4"} 0`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// A router-less server still answers /v1/models and omits the
	// route families from its scrape.
	bare := httptest.NewServer(NewServer(q, q.store, &llm.Metrics{}).Handler())
	t.Cleanup(bare.Close)
	var off struct {
		Routing struct {
			Enabled bool `json:"enabled"`
		} `json:"routing"`
	}
	if code := getJSON(t, bare.URL+"/v1/models", &off); code != http.StatusOK || off.Routing.Enabled {
		t.Fatalf("bare /v1/models = %d routing=%v, want 200 with routing off", code, off.Routing.Enabled)
	}
	bresp, err := http.Get(bare.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	bbody, _ := io.ReadAll(bresp.Body)
	if strings.Contains(string(bbody), "chatvis_route_") {
		t.Error("route families leaked into a router-less scrape")
	}
}
