package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"chatvis/internal/chatvis"
	"chatvis/internal/cluster"
	"chatvis/internal/obs"
	"chatvis/internal/plan"
	"chatvis/internal/pvsim"
)

// gatedFactory wraps the production session factory so every turn
// reports its start on started and then blocks until gate closes.
func gatedFactory(t *testing.T, started chan<- struct{}, gate <-chan struct{}) SessionFactory {
	_, base := NewServingBackend(PipelineConfig{DataDir: t.TempDir()})
	return func(req SessionRequest, shots pvsim.ScreenshotSink, seed *plan.Plan, observer func(chatvis.Event)) (*chatvis.Session, error) {
		return base(req, shots, seed, func(ev chatvis.Event) {
			if ev.Type == chatvis.EventTurnStarted {
				started <- struct{}{}
				<-gate
			}
			observer(ev)
		})
	}
}

// TestTurnsRunInOrderWithoutHoldingWorkers: turns submitted back to back
// on one session start one at a time in submission order, and the turns
// waiting behind the running one hold no worker — a job submitted after
// them runs to completion before the third turn finishes.
func TestTurnsRunInOrderWithoutHoldingWorkers(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := &stubPipeline{}
	q, err := NewQueue(QueueOptions{Workers: 2, Pipeline: p.run, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	started, gate := make(chan struct{}, 8), make(chan struct{})
	m := NewSessions(q, gatedFactory(t, started, gate))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		_ = q.Shutdown(ctx)
	})
	sess, err := m.Create(SessionRequest{Model: "oracle", Width: 320, Height: 180})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, prompt := range []string{sessionIsoPrompt, "Raise the isovalue to 0.7.", "Set the isovalue to 0.9."} {
		v, outcome, err := sess.SubmitTurn(TurnRequest{Prompt: prompt})
		if err != nil || outcome != SubmissionNew {
			t.Fatalf("submit %q: %v %v", prompt, outcome, err)
		}
		ids = append(ids, v.ID)
	}

	// Turn 1 is executing and blocked; turns 2 and 3 wait behind it.
	<-started
	job, _, err := q.Submit(JobRequest{Prompt: "submitted after three turns"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, job)
	if job.Status() != StatusSucceeded {
		t.Fatalf("job = %s (%s)", job.Status(), job.Err())
	}
	if v, _ := sess.TurnView(ids[2]); v.Status.Terminal() {
		t.Fatalf("third turn finished before the job: %+v", v)
	}
	for _, id := range ids[1:] {
		if v, _ := sess.TurnView(id); v.Status != StatusQueued {
			t.Errorf("turn %s = %s while turn 1 runs, want queued", id, v.Status)
		}
	}

	close(gate)
	var prev TurnView
	for i, id := range ids {
		v := waitTurn(t, sess, id)
		if v.Status != StatusSucceeded {
			t.Fatalf("turn %s = %s (%s)", id, v.Status, v.Error)
		}
		if i > 0 && v.Started.Before(*prev.Finished) {
			t.Errorf("turn %s started at %v, before turn %s finished at %v",
				id, v.Started, prev.ID, prev.Finished)
		}
		prev = v
	}
	if got := p.executions.Load(); got != 1 {
		t.Errorf("job pipeline executions = %d, want 1", got)
	}
}

// TestConcurrentSessionsAndJobsShareWorkers drives several sessions and
// jobs from concurrent submitters through a two-worker queue: every turn
// and job completes, and each session's turns run one at a time in
// submission order.
func TestConcurrentSessionsAndJobsShareWorkers(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := &stubPipeline{}
	q, err := NewQueue(QueueOptions{Workers: 2, Pipeline: p.run, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	_, factory := NewServingBackend(PipelineConfig{DataDir: t.TempDir()})
	m := NewSessions(q, factory)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		_ = q.Shutdown(ctx)
	})

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		sess, err := m.Create(SessionRequest{Model: "oracle", Width: 320, Height: 180})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			for _, prompt := range []string{sessionIsoPrompt, "Raise the isovalue to 0.7.", "Set the isovalue to 0.9."} {
				if _, _, err := sess.SubmitTurn(TurnRequest{Prompt: prompt}); err != nil {
					t.Error(err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				if _, _, err := q.Submit(JobRequest{Prompt: fmt.Sprintf("job %d of submitter %d", j, i)}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()

	for _, job := range q.Jobs() {
		waitJob(t, job)
		if job.Status() != StatusSucceeded {
			t.Errorf("job %s = %s (%s)", job.ID, job.Status(), job.Err())
		}
	}
	for _, sess := range m.List() {
		var prev *TurnView
		for _, tv := range sess.View().Turns {
			v := waitTurn(t, sess, tv.ID)
			if v.Status != StatusSucceeded {
				t.Errorf("%s %s = %s (%s)", sess.ID, v.ID, v.Status, v.Error)
			}
			if prev != nil && v.Started.Before(*prev.Finished) {
				t.Errorf("%s: %s started before %s finished", sess.ID, v.ID, prev.ID)
			}
			prev = &v
		}
	}
}

// TestTurnAtCapacityIsRejected: a turn submitted while the backlog is
// full gets ErrQueueFull (503 over HTTP) and leaves neither a pending WAL
// record nor a stillborn turn on the session.
func TestTurnAtCapacityIsRejected(t *testing.T) {
	p := &stubPipeline{gate: make(chan struct{})}
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := cluster.OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(QueueOptions{Workers: 1, Capacity: 1, Pipeline: p.run, Store: store, WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	_, factory := NewServingBackend(PipelineConfig{DataDir: t.TempDir()})
	m := NewSessions(q, factory)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		_ = q.Shutdown(ctx)
		w.Close()
	})
	srv := httptest.NewServer(NewServer(q, store, nil).WithSessions(m).Handler())
	defer srv.Close()

	// One job runs (gated) on the only worker; a second fills the backlog.
	running, _, err := q.Submit(JobRequest{Prompt: "occupies the worker"})
	if err != nil {
		t.Fatal(err)
	}
	for running.Status() != StatusRunning {
		time.Sleep(time.Millisecond)
	}
	queued, _, err := q.Submit(JobRequest{Prompt: "fills the backlog"})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := m.Create(SessionRequest{Model: "oracle", Width: 320, Height: 180})
	if err != nil {
		t.Fatal(err)
	}
	backlog := w.Backlog()

	if _, _, err := sess.SubmitTurn(TurnRequest{Prompt: sessionIsoPrompt}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("turn at capacity: err = %v, want ErrQueueFull", err)
	}
	body, _ := json.Marshal(TurnRequest{Prompt: sessionIsoPrompt})
	resp, err := http.Post(srv.URL+"/v1/sessions/"+sess.ID+"/turns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST turn at capacity = %d, want 503", resp.StatusCode)
	}
	if got := w.Backlog(); got != backlog {
		t.Errorf("wal backlog = %d after rejected turns, want %d", got, backlog)
	}
	if turns := sess.View().Turns; len(turns) != 0 {
		t.Errorf("rejected turns left records: %+v", turns)
	}

	// Once the backlog drains, the same turn is accepted and runs.
	close(p.gate)
	waitJob(t, running)
	waitJob(t, queued)
	v, _, err := sess.SubmitTurn(TurnRequest{Prompt: sessionIsoPrompt})
	if err != nil {
		t.Fatal(err)
	}
	if v = waitTurn(t, sess, v.ID); v.Status != StatusSucceeded {
		t.Fatalf("turn after drain = %s (%s)", v.Status, v.Error)
	}
}

// TestTurnLatencyHistogramExemplar: a session turn is observed by
// chatvis_job_duration_seconds with its trace ID as the bucket exemplar,
// while the chatvis_jobs_* counters keep counting /v1/jobs only.
func TestTurnLatencyHistogramExemplar(t *testing.T) {
	m, store := newTestSessions(t)
	server := NewServer(m.q, store, nil).WithSessions(m).WithTracer(obs.NewTracer("t1", 0))
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()

	sess, err := m.Create(SessionRequest{Model: "oracle", Width: 320, Height: 180})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(TurnRequest{Prompt: sessionIsoPrompt})
	resp, err := http.Post(srv.URL+"/v1/sessions/"+sess.ID+"/turns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitTurnResponse
	_ = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.TraceID == "" {
		t.Fatalf("POST turn = %d %+v", resp.StatusCode, sub)
	}
	if v := waitTurn(t, sess, sub.ID); v.Status != StatusSucceeded {
		t.Fatalf("turn = %s (%s)", v.Status, v.Error)
	}

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	om := string(raw)
	for _, want := range []string{
		"chatvis_job_duration_seconds_count 1\n",
		"chatvis_session_turns_total 1\n",
		"chatvis_jobs_submitted_total 0\n",
		"chatvis_jobs_executed_total 0\n",
	} {
		if !strings.Contains(om, want) {
			t.Errorf("metrics missing %q", strings.TrimSpace(want))
		}
	}
	exemplar := `# {trace_id="` + sub.TraceID + `"}`
	found := false
	for _, line := range strings.Split(om, "\n") {
		if strings.HasPrefix(line, "chatvis_job_duration_seconds_bucket") && strings.Contains(line, exemplar) {
			found = true
		}
	}
	if !found {
		t.Errorf("no duration bucket carries the turn's exemplar %s", exemplar)
	}
}

// TestReplayWALJobAndTurn: one WAL holding an unfinished job and an
// unfinished turn replays both, exactly once, through the queue's single
// ReplayWAL.
func TestReplayWALJobAndTurn(t *testing.T) {
	storeDir, walDir := t.TempDir(), t.TempDir()
	_, factory := NewServingBackend(PipelineConfig{DataDir: t.TempDir()})

	// Boot 1: a session exists; a job and a turn are accepted, then the
	// node "crashes" before either runs.
	store, err := NewStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSessions(newTestQueueForSessions(t, store), factory).
		Create(SessionRequest{Model: "oracle", Width: 320, Height: 180})
	if err != nil {
		t.Fatal(err)
	}
	w1, err := cluster.OpenWAL(walDir)
	if err != nil {
		t.Fatal(err)
	}
	jobReq := JobRequest{Prompt: "accepted before the crash"}
	turnReq := TurnRequest{Prompt: sessionIsoPrompt}
	if err := w1.Accepted(cluster.KindJob, "", "job-1", Key(jobReq), jobReq); err != nil {
		t.Fatal(err)
	}
	if err := w1.Accepted(cluster.KindTurn, sess.ID, "turn-1", TurnKey("", turnReq.Prompt), turnReq); err != nil {
		t.Fatal(err)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	// Boot 2: restore sessions, then one replay call for both kinds.
	p := &stubPipeline{}
	q, w2 := newWALQueue(t, p, storeDir, walDir, 2)
	m := NewSessions(q, factory)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		_ = q.Shutdown(ctx)
		w2.Close()
	})
	if got := m.Restore(); got != 1 {
		t.Fatalf("restored %d sessions, want 1", got)
	}
	if n := q.ReplayWAL(); n != 2 {
		t.Fatalf("ReplayWAL = %d, want 2 (one job, one turn)", n)
	}
	jobs := q.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("replay created %d jobs, want 1", len(jobs))
	}
	waitJob(t, jobs[0])
	s, _ := m.Get(sess.ID)
	turns := s.View().Turns
	if len(turns) != 1 {
		t.Fatalf("replay created %d turns, want 1", len(turns))
	}
	if v := waitTurn(t, s, turns[0].ID); v.Status != StatusSucceeded {
		t.Fatalf("replayed turn = %s (%s)", v.Status, v.Error)
	}
	if got := p.executions.Load(); got != 1 {
		t.Errorf("job executions after replay = %d, want 1", got)
	}
	if got := q.Snapshot().Replayed; got != 2 {
		t.Errorf("replayed counter = %d, want 2", got)
	}
	if got := w2.Backlog(); got != 0 {
		t.Errorf("wal backlog after replay = %d, want 0", got)
	}

	// Boot 3: nothing is left to replay.
	w3, err := cluster.OpenWAL(walDir)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if got := len(w3.Recovered()); got != 0 {
		t.Errorf("third boot recovered %d records: %+v", got, w3.Recovered())
	}
}
