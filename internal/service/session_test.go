package service

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"chatvis/internal/chatvis"
	"chatvis/internal/pvsim"
)

const sessionIsoPrompt = "Please generate a ParaView Python script for the following operations. Read in the file named ml-100.vtk. Generate an isosurface of the variable var0 at value 0.5. Save a screenshot of the result in the filename iso.png. The rendered view and saved screenshot should be 320 x 180 pixels."

// newTestSessions wires a real store, a job queue to run the turns and
// the production session factory against the stub "oracle" profile.
func newTestSessions(t *testing.T) (*Sessions, *Store) {
	t.Helper()
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, factory := NewServingBackend(PipelineConfig{
		DataDir: t.TempDir(),
	})
	return NewSessions(newTestQueueForSessions(t, store), factory), store
}

func waitTurn(t *testing.T, s *SvcSession, turnID string) TurnView {
	t.Helper()
	done, ok := s.TurnDone(turnID)
	if !ok {
		t.Fatalf("unknown turn %s", turnID)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("turn %s never finished", turnID)
	}
	view, _ := s.TurnView(turnID)
	return view
}

// TestServiceSessionTwoTurnsIncremental drives the session manager end
// to end: create → first turn → edit turn, asserting the edit re-ran
// only the changed stage and that identical edit submissions coalesce.
func TestServiceSessionTwoTurnsIncremental(t *testing.T) {
	m, _ := newTestSessions(t)
	sess, err := m.Create(SessionRequest{Model: "oracle", Width: 320, Height: 180})
	if err != nil {
		t.Fatal(err)
	}

	v1, outcome, err := sess.SubmitTurn(TurnRequest{Prompt: sessionIsoPrompt})
	if err != nil || outcome != SubmissionNew {
		t.Fatalf("turn 1 submit: %v %v", outcome, err)
	}
	v1 = waitTurn(t, sess, v1.ID)
	if v1.Status != StatusSucceeded || !v1.Success {
		t.Fatalf("turn 1 = %s (%s)", v1.Status, v1.Error)
	}
	if v1.PlanHash == "" || v1.ScriptHash == "" || v1.ArtifactHash == "" {
		t.Fatalf("turn 1 missing artifact hashes: %+v", v1)
	}

	v2, outcome, err := sess.SubmitTurn(TurnRequest{Prompt: "Raise the isovalue to 0.7."})
	if err != nil || outcome != SubmissionNew {
		t.Fatalf("turn 2 submit: %v %v", outcome, err)
	}
	v2 = waitTurn(t, sess, v2.ID)
	if v2.Status != StatusSucceeded || !v2.Success {
		t.Fatalf("turn 2 = %s (%s)", v2.Status, v2.Error)
	}
	if v2.ParentPlanHash != v1.PlanHash {
		t.Errorf("turn 2 parent = %s, want %s", v2.ParentPlanHash, v1.PlanHash)
	}
	// The incremental pin at the service layer: one recomputed stage.
	if v2.ExecutionsDelta != 1 {
		t.Errorf("turn 2 executions delta = %d, want 1", v2.ExecutionsDelta)
	}
	if len(v2.ChangedStages) == 0 {
		t.Error("turn 2 reports no changed stages")
	}

	// A reworded identical edit against the *new* parent is a new turn;
	// the exact same meaning against the same parent coalesces.
	v3, outcome, err := sess.SubmitTurn(TurnRequest{Prompt: "Set the isovalue to 0.9."})
	if err != nil {
		t.Fatal(err)
	}
	if outcome != SubmissionNew {
		t.Fatalf("fresh edit coalesced unexpectedly")
	}
	dup, outcome, err := sess.SubmitTurn(TurnRequest{Prompt: "Raise the isovalue to 0.9."})
	if err != nil {
		t.Fatal(err)
	}
	if outcome != SubmissionCoalesced || dup.ID != v3.ID {
		t.Errorf("reworded duplicate = %v (%s vs %s), want coalesced", outcome, dup.ID, v3.ID)
	}
	waitTurn(t, sess, v3.ID)

	if got := m.Snapshot().Turns; got != 3 {
		t.Errorf("turns total = %d, want 3", got)
	}
}

// TestServiceSessionSurvivesRestart: a new Sessions registry over the
// same store restores the session and continues the conversation from
// the persisted plan.
func TestServiceSessionSurvivesRestart(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dataDir := t.TempDir()
	_, factory := NewServingBackend(PipelineConfig{DataDir: dataDir})

	m1 := NewSessions(newTestQueueForSessions(t, store), factory)
	sess, err := m1.Create(SessionRequest{Model: "oracle", Width: 320, Height: 180})
	if err != nil {
		t.Fatal(err)
	}
	v1, _, err := sess.SubmitTurn(TurnRequest{Prompt: sessionIsoPrompt})
	if err != nil {
		t.Fatal(err)
	}
	v1 = waitTurn(t, sess, v1.ID)
	if !v1.Success {
		t.Fatalf("turn 1 failed: %s", v1.Error)
	}
	planHash := sess.View().PlanHash

	// "Restart": a fresh registry over the same store.
	_, factory2 := NewServingBackend(PipelineConfig{DataDir: dataDir})
	m2 := NewSessions(newTestQueueForSessions(t, store), factory2)
	if restored := m2.Restore(); restored != 1 {
		t.Fatalf("restored %d sessions, want 1", restored)
	}
	back, ok := m2.Get(sess.ID)
	if !ok {
		t.Fatal("restored session not found by id")
	}
	bv := back.View()
	if bv.PlanHash != planHash {
		t.Errorf("restored plan hash = %s, want %s", bv.PlanHash, planHash)
	}
	if len(bv.Turns) != 1 || bv.Turns[0].Status != StatusSucceeded {
		t.Fatalf("restored turns = %+v", bv.Turns)
	}

	// The conversation continues: an edit against the restored plan.
	v2, _, err := back.SubmitTurn(TurnRequest{Prompt: "Raise the isovalue to 0.7."})
	if err != nil {
		t.Fatal(err)
	}
	v2 = waitTurn(t, back, v2.ID)
	if v2.Status != StatusSucceeded || !v2.Success {
		t.Fatalf("post-restart turn = %s (%s)", v2.Status, v2.Error)
	}
	if v2.ParentPlanHash != planHash {
		t.Errorf("post-restart parent = %s, want %s", v2.ParentPlanHash, planHash)
	}
	if v2.Index != 2 {
		t.Errorf("post-restart turn index = %d, want 2", v2.Index)
	}
	// New sessions on the restored registry do not collide with old ids.
	fresh, err := m2.Create(SessionRequest{Model: "oracle"})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == sess.ID {
		t.Errorf("restored registry reissued id %s", fresh.ID)
	}
}

// TestSessionHTTPEndpointsAndMetrics covers the HTTP surface: create,
// submit turns, fetch state, and the session metrics in Prometheus
// scrape format (satellite: scrape-format test alongside the queue
// histogram).
func TestSessionHTTPEndpointsAndMetrics(t *testing.T) {
	m, store := newTestSessions(t)
	srv := httptest.NewServer(NewServer(m.q, store, nil).WithSessions(m).Handler())
	defer srv.Close()

	// Create.
	resp, err := http.Post(srv.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"model":"oracle","width":320,"height":180}`))
	if err != nil {
		t.Fatal(err)
	}
	var created SessionView
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || created.ID == "" {
		t.Fatalf("POST /v1/sessions = %d %+v", resp.StatusCode, created)
	}

	// Unknown model is rejected up front.
	resp, err = http.Post(srv.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"model":"gpt-17"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown model = %d, want 400", resp.StatusCode)
	}

	// Turn 1 over HTTP.
	body, _ := json.Marshal(TurnRequest{Prompt: sessionIsoPrompt})
	resp, err = http.Post(srv.URL+"/v1/sessions/"+created.ID+"/turns", "application/json",
		strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var turn submitTurnResponse
	if err := json.NewDecoder(resp.Body).Decode(&turn); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || turn.Submission != SubmissionNew {
		t.Fatalf("POST turn = %d %+v", resp.StatusCode, turn)
	}

	// Poll the turn to completion.
	deadline := time.Now().Add(30 * time.Second)
	var tv TurnView
	for {
		if time.Now().After(deadline) {
			t.Fatalf("turn stuck in %s", tv.Status)
		}
		resp, err := http.Get(srv.URL + "/v1/sessions/" + created.ID + "/turns/" + turn.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&tv)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if tv.Status.Terminal() {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if tv.Status != StatusSucceeded || !tv.Success {
		t.Fatalf("turn finished %s (%s)", tv.Status, tv.Error)
	}

	// Session view inlines plan + turns.
	resp, err = http.Get(srv.URL + "/v1/sessions/" + created.ID)
	if err != nil {
		t.Fatal(err)
	}
	var view SessionView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view.PlanHash == "" || len(view.Plan) == 0 || len(view.Turns) != 1 {
		t.Fatalf("session view = %+v", view)
	}

	// Metrics: the three session series, in scrape format with TYPE
	// lines, alongside the existing queue histogram.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"# TYPE chatvis_sessions_active gauge",
		"chatvis_sessions_active 1",
		"# TYPE chatvis_session_turns_total counter",
		"chatvis_session_turns_total 1",
		"# TYPE chatvis_sse_subscribers gauge",
		"chatvis_sse_subscribers 0",
		"# TYPE chatvis_job_duration_seconds histogram",
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSessionSSEStreamsEvents subscribes to the event stream while an
// edit turn runs and asserts stage events arrive.
func TestSessionSSEStreamsEvents(t *testing.T) {
	m, store := newTestSessions(t)
	srv := httptest.NewServer(NewServer(m.q, store, nil).WithSessions(m).Handler())
	defer srv.Close()

	sess, err := m.Create(SessionRequest{Model: "oracle", Width: 320, Height: 180})
	if err != nil {
		t.Fatal(err)
	}
	v1, _, err := sess.SubmitTurn(TurnRequest{Prompt: sessionIsoPrompt})
	if err != nil {
		t.Fatal(err)
	}
	waitTurn(t, sess, v1.ID)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/v1/sessions/"+sess.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	// Drive an edit turn while subscribed.
	if _, _, err := sess.SubmitTurn(TurnRequest{Prompt: "Raise the isovalue to 0.7."}); err != nil {
		t.Fatal(err)
	}

	scanner := bufio.NewScanner(resp.Body)
	var types []string
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		types = append(types, ev.Type)
		if ev.Type == "turn-stored" {
			break
		}
	}
	joined := strings.Join(types, ",")
	for _, want := range []string{"snapshot", "turn-started", "stage", "turn-finished", "turn-stored"} {
		if !strings.Contains(joined, want) {
			t.Errorf("SSE stream missing %q (got %s)", want, joined)
		}
	}
}

// TestTurnKeySemantics pins the coalescing identity: rewordings of one
// edit share a key; different parents or different meanings do not.
func TestTurnKeySemantics(t *testing.T) {
	parent := strings.Repeat("ab", 32)
	a := TurnKey(parent, "Raise the isovalue to 0.7.")
	b := TurnKey(parent, "Set the isovalue to 0.7.")
	if a != b {
		t.Error("reworded identical edits got different turn keys")
	}
	if TurnKey(parent, "Raise the isovalue to 0.9.") == a {
		t.Error("different edits share a turn key")
	}
	if TurnKey(strings.Repeat("cd", 32), "Raise the isovalue to 0.7.") == a {
		t.Error("different parent plans share a turn key")
	}
	// First turns key on the intended plan, so rewordings of the same
	// request also coalesce.
	f1 := TurnKey("", sessionIsoPrompt)
	f2 := TurnKey("", strings.Replace(sessionIsoPrompt, "Please generate", "Generate", 1))
	if f1 != f2 {
		t.Error("equal-meaning first turns got different keys")
	}
}

// newTestQueueForSessions builds a queue that runs session turns; its
// job pipeline is never called in these tests. The queue drains when
// the test ends.
func newTestQueueForSessions(t *testing.T, store *Store) *Queue {
	t.Helper()
	q, err := NewQueue(QueueOptions{
		Workers: 1,
		Pipeline: func(ctx context.Context, req JobRequest, _ pvsim.ScreenshotSink) (*chatvis.Artifact, error) {
			panic("unused")
		},
		Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		_ = q.Shutdown(ctx)
	})
	return q
}
