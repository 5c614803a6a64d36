package service

import (
	"context"
	"testing"
	"time"

	"chatvis/internal/cluster"
)

// newWALQueue wires a queue over a WAL and a store rooted in existing
// directories, so tests can "restart the daemon" by building a second
// stack over the same disk state.
func newWALQueue(t *testing.T, p *stubPipeline, storeDir, walDir string, workers int) (*Queue, *cluster.WAL) {
	t.Helper()
	store, err := NewStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := cluster.OpenWAL(walDir)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(QueueOptions{Workers: workers, Pipeline: p.run, Store: store, WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	return q, w
}

// TestWALCrashReplaysExactlyUnfinished kills a node mid-job and
// verifies the restart re-executes exactly the unfinished work: the
// completed job is NOT re-run, the running and queued ones are.
func TestWALCrashReplaysExactlyUnfinished(t *testing.T) {
	storeDir, walDir := t.TempDir(), t.TempDir()

	p := &stubPipeline{}
	q, w := newWALQueue(t, p, storeDir, walDir, 1)

	// Job 1 completes normally.
	j1, _, err := q.Submit(JobRequest{Prompt: "finished before the crash"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j1)

	// Job 2 blocks mid-execution; job 3 sits queued behind it (1 worker).
	p.gate = make(chan struct{})
	j2, _, err := q.Submit(JobRequest{Prompt: "running at the crash"})
	if err != nil {
		t.Fatal(err)
	}
	j3, _, err := q.Submit(JobRequest{Prompt: "queued at the crash"})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until j2 is actually executing.
	deadline := time.Now().Add(5 * time.Second)
	for j2.Status() != StatusRunning && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	// Crash: the WAL stops persisting, then the process "dies" (forced
	// shutdown — in-flight work is canceled, nothing more hits disk).
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	cancel()
	_ = q.Shutdown(expired)
	close(p.gate)
	_ = j3 // queued job died with the process

	// Restart: a fresh stack over the same directories.
	p2 := &stubPipeline{}
	q2, w2 := newWALQueue(t, p2, storeDir, walDir, 1)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = q2.Shutdown(ctx)
	})
	if got := len(w2.Recovered()); got != 2 {
		t.Fatalf("recovered %d records, want 2 (running + queued): %+v", got, w2.Recovered())
	}
	if n := q2.ReplayWAL(); n != 2 {
		t.Fatalf("replayed %d, want 2", n)
	}
	for _, j := range q2.Jobs() {
		waitJob(t, j)
		if j.Status() != StatusSucceeded {
			t.Errorf("replayed job %s: %s (%s)", j.ID, j.Status(), j.Err())
		}
	}
	// Exactly the two unfinished jobs executed — the completed one was
	// answered from the store if resubmitted, and was not replayed.
	if got := p2.executions.Load(); got != 2 {
		t.Errorf("restart executed %d jobs, want 2", got)
	}
	if snap := q2.Snapshot(); snap.Replayed != 2 {
		t.Errorf("replayed counter = %d, want 2", snap.Replayed)
	}
	if got := w2.Backlog(); got != 0 {
		t.Errorf("wal backlog after replay = %d, want 0", got)
	}

	// A third boot finds nothing to do: the replay retired the recovered
	// records and the re-executions retired their own.
	w3, err := cluster.OpenWAL(walDir)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if got := len(w3.Recovered()); got != 0 {
		t.Errorf("third boot recovered %d records, want 0: %+v", got, w3.Recovered())
	}
}

// TestWALGracefulDrainReplaysNothing is the drain-flush regression
// test: a drained-then-restarted node must not re-execute delivered
// results.
func TestWALGracefulDrainReplaysNothing(t *testing.T) {
	storeDir, walDir := t.TempDir(), t.TempDir()
	p := &stubPipeline{}
	q, _ := newWALQueue(t, p, storeDir, walDir, 2)
	for _, prompt := range []string{"drain a", "drain b", "drain c"} {
		if _, _, err := q.Submit(JobRequest{Prompt: prompt}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := q.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	p2 := &stubPipeline{}
	q2, w2 := newWALQueue(t, p2, storeDir, walDir, 2)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = q2.Shutdown(ctx)
	})
	if got := len(w2.Recovered()); got != 0 {
		t.Fatalf("drained node left %d pending records: %+v", got, w2.Recovered())
	}
	if n := q2.ReplayWAL(); n != 0 {
		t.Errorf("replayed %d after graceful drain, want 0", n)
	}
	if got := p2.executions.Load(); got != 0 {
		t.Errorf("restart re-executed %d delivered jobs", got)
	}
}

// TestWALFailedJobsDoNotReplay: a job that failed terminally was
// answered (with its error); it must not run again on restart.
func TestWALFailedJobsDoNotReplay(t *testing.T) {
	storeDir, walDir := t.TempDir(), t.TempDir()
	p := &stubPipeline{fail: true}
	q, _ := newWALQueue(t, p, storeDir, walDir, 1)
	j, _, err := q.Submit(JobRequest{Prompt: "always fails"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if j.Status() != StatusFailed {
		t.Fatalf("status %s", j.Status())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = q.Shutdown(ctx)

	w2, err := cluster.OpenWAL(walDir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := len(w2.Recovered()); got != 0 {
		t.Errorf("failed job left %d pending records: %+v", got, w2.Recovered())
	}
}

// TestTurnWALReplay drives the session-side recovery path: a turn
// accepted (durably) but never executed is re-submitted through a
// freshly restored session on the next boot.
func TestTurnWALReplay(t *testing.T) {
	storeDir, walDir := t.TempDir(), t.TempDir()
	store, err := NewStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}

	// Boot 1: create a session, accept a turn into the WAL, then "crash"
	// before anything executes. Writing the records directly keeps the
	// crash point deterministic.
	_, factory := NewServingBackend(PipelineConfig{DataDir: t.TempDir()})
	m1 := NewSessions(newTestQueueForSessions(t, store), factory)
	sess, err := m1.Create(SessionRequest{Model: "oracle", Width: 320, Height: 180})
	if err != nil {
		t.Fatal(err)
	}
	w1, err := cluster.OpenWAL(walDir)
	if err != nil {
		t.Fatal(err)
	}
	req := TurnRequest{Prompt: sessionIsoPrompt}
	if err := w1.Accepted(cluster.KindTurn, sess.ID, "turn-1", TurnKey("", req.Prompt), req); err != nil {
		t.Fatal(err)
	}
	if err := w1.Close(); err != nil { // crash
		t.Fatal(err)
	}

	// Boot 2: restore sessions, replay the WAL, and watch the turn run.
	store2, err := NewStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := cluster.OpenWAL(walDir)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := NewQueue(QueueOptions{Workers: 1, Pipeline: (&stubPipeline{}).run, Store: store2, WAL: w2})
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewSessions(q2, factory)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		_ = q2.Shutdown(ctx)
		w2.Close()
	})
	if got := m2.Restore(); got != 1 {
		t.Fatalf("restored %d sessions, want 1", got)
	}
	if n := q2.ReplayWAL(); n != 1 {
		t.Fatalf("replayed %d turns, want 1", n)
	}
	s2, ok := m2.Get(sess.ID)
	if !ok {
		t.Fatal("session missing after restore")
	}
	var finished TurnView
	deadline := time.Now().Add(30 * time.Second)
	for {
		views := s2.View().Turns
		if len(views) > 0 && views[len(views)-1].Status.Terminal() {
			finished = views[len(views)-1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed turn never finished: %+v", views)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if finished.Status != StatusSucceeded || !finished.Success {
		t.Fatalf("replayed turn: %+v", finished)
	}
	if got := w2.Backlog(); got != 0 {
		t.Errorf("wal backlog after turn replay = %d, want 0", got)
	}
	if got := q2.Snapshot().Replayed; got != 1 {
		t.Errorf("sessions replayed counter = %d, want 1", got)
	}

	// Boot 3: nothing left to replay.
	w3, err := cluster.OpenWAL(walDir)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if got := len(w3.Recovered()); got != 0 {
		t.Errorf("third boot recovered %d turn records: %+v", got, w3.Recovered())
	}
}

// TestRestoredDeadTurnDoesNotSwallowReplay: a session record persisted
// with a queued/running turn (the crash snapshot) must not let that
// dead turn coalesce-away the replayed submission.
func TestRestoredDeadTurnDoesNotSwallowReplay(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := TurnKey("", sessionIsoPrompt)
	rec := &SessionRecord{
		ID:      "s-1",
		Request: SessionRequest{Model: "oracle", Width: 320, Height: 180},
		Turns: []TurnView{{
			ID: "turn-1", Index: 1, Key: key, Prompt: sessionIsoPrompt,
			Status: StatusRunning, Submitted: time.Now(),
		}},
		Created: time.Now(),
	}
	if err := store.PutSessionRecord(rec); err != nil {
		t.Fatal(err)
	}
	_, factory := NewServingBackend(PipelineConfig{DataDir: t.TempDir()})
	m := NewSessions(newTestQueueForSessions(t, store), factory)
	if got := m.Restore(); got != 1 {
		t.Fatal("restore failed")
	}
	s, _ := m.Get("s-1")
	if v, ok := s.TurnView("turn-1"); !ok || v.Status != StatusCanceled {
		t.Fatalf("dead turn not marked canceled: %+v", v)
	}
	// Re-submitting the same prompt must start a NEW execution, not
	// coalesce onto the corpse.
	view, outcome, err := s.SubmitTurn(TurnRequest{Prompt: sessionIsoPrompt})
	if err != nil {
		t.Fatal(err)
	}
	if outcome != SubmissionNew {
		t.Fatalf("submission %q, want new", outcome)
	}
	final := waitTurn(t, s, view.ID)
	if final.Status != StatusSucceeded {
		t.Fatalf("resubmitted turn: %+v", final)
	}
}
