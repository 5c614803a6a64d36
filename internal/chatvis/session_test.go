package chatvis

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"chatvis/internal/llm"
	"chatvis/internal/obs"
	"chatvis/internal/plan"
)

func newSession(t *testing.T, modelName string, opts ...Option) *Session {
	t.Helper()
	model, err := llm.NewModel(modelName)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(model, testRunner(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSessionTwoTurnsIncremental pins the acceptance criterion of the
// conversational API: a second turn that edits exactly one stage
// re-executes only that stage (and its downstream subtree) on the
// session engine — Executions() advances by 1, not by the plan size.
func TestSessionTwoTurnsIncremental(t *testing.T) {
	s := newSession(t, "gpt-4")
	t1, err := s.Turn(context.Background(), testPrompts()["isosurface"])
	if err != nil {
		t.Fatal(err)
	}
	if !t1.Artifact.Success {
		t.Fatalf("turn 1 failed:\n%s", t1.Artifact.Iterations[len(t1.Artifact.Iterations)-1].Output)
	}
	if t1.Index != 1 || t1.Artifact.TurnIndex != 1 {
		t.Errorf("turn 1 index = %d/%d", t1.Index, t1.Artifact.TurnIndex)
	}
	if t1.ParentPlanHash != "" {
		t.Errorf("turn 1 has a parent plan hash: %q", t1.ParentPlanHash)
	}
	if !t1.Incremental {
		t.Error("turn 1 did not seed the session engine")
	}
	// The iso pipeline has two pipeline stages (reader, contour); seeding
	// the engine executed both.
	if t1.ExecutionsDelta != 2 {
		t.Errorf("turn 1 seed executions = %d, want 2", t1.ExecutionsDelta)
	}
	parentHash := s.PlanHash()
	if parentHash == "" {
		t.Fatal("session adopted no plan")
	}

	t2, err := s.Turn(context.Background(), "Raise the isovalue to 0.7.")
	if err != nil {
		t.Fatal(err)
	}
	if !t2.Artifact.Success {
		t.Fatalf("turn 2 failed: %s", t2.Artifact.Iterations[0].Output)
	}
	if t2.ParentPlanHash != parentHash {
		t.Errorf("turn 2 parent hash = %q, want %q", t2.ParentPlanHash, parentHash)
	}
	// Exactly the contour stage (and its dependent display) changed; the
	// reader, view and screenshot stages kept their subtree hashes.
	foundContour := false
	for _, id := range t2.ChangedStages {
		if strings.HasPrefix(id, "contour") {
			foundContour = true
		}
		if strings.HasPrefix(id, "reader") {
			t.Errorf("reader reported as changed: %v", t2.ChangedStages)
		}
	}
	if !foundContour {
		t.Errorf("changed stages %v missing the contour", t2.ChangedStages)
	}
	// THE acceptance pin: one pipeline-stage recomputation, not two.
	if t2.ExecutionsDelta != 1 {
		t.Errorf("turn 2 executions delta = %d, want 1 (incremental re-exec)", t2.ExecutionsDelta)
	}
	if len(t2.Artifact.Screenshots) == 0 {
		t.Error("turn 2 produced no screenshot")
	}
	if s.PlanHash() == parentHash {
		t.Error("session plan did not advance after the edit")
	}
	// The edited plan carries the new isovalue.
	got := t2.Artifact.Plan
	idx := got.FindClass("Contour")
	if idx < 0 {
		t.Fatal("edited plan has no contour stage")
	}
	iso, ok := got.Stage(idx).Props["Isosurfaces"]
	if !ok || iso.Kind != plan.KindList || len(iso.List) != 1 || iso.List[0].Num != 0.7 {
		t.Errorf("Isosurfaces after edit = %+v, want [0.7]", iso)
	}
	if t2.DeltaSummary == "" || t2.DeltaSummary == "no changes" {
		t.Errorf("delta summary = %q", t2.DeltaSummary)
	}
}

// TestSessionEditAddsAndRemovesStages drives a three-turn conversation:
// build, add a clip, then drop it again — the final plan hash returns to
// the post-turn-1 hash.
func TestSessionEditAddsAndRemovesStages(t *testing.T) {
	s := newSession(t, "gpt-4")
	t1, err := s.Turn(context.Background(), testPrompts()["isosurface"])
	if err != nil {
		t.Fatal(err)
	}
	if !t1.Artifact.Success {
		t.Fatal("turn 1 failed")
	}
	baseHash := s.PlanHash()

	t2, err := s.Turn(context.Background(), "Clip the data with a y-z plane at x=0, keeping the -x half of the data and removing the +x half.")
	if err != nil {
		t.Fatal(err)
	}
	if !t2.Artifact.Success {
		t.Fatalf("clip turn failed: %s", t2.Artifact.Iterations[0].Output)
	}
	if t2.Artifact.Plan.FindClass("Clip") < 0 {
		t.Fatalf("clip stage missing after edit:\n%s", t2.Artifact.FinalScript)
	}
	if !strings.Contains(t2.DeltaSummary, "added Clip") {
		t.Errorf("delta summary = %q, want added Clip", t2.DeltaSummary)
	}

	t3, err := s.Turn(context.Background(), "Remove the clip.")
	if err != nil {
		t.Fatal(err)
	}
	if !t3.Artifact.Success {
		t.Fatalf("remove turn failed: %s", t3.Artifact.Iterations[0].Output)
	}
	if t3.Artifact.Plan.FindClass("Clip") >= 0 {
		t.Error("clip stage survived removal")
	}
	if s.PlanHash() != baseHash {
		t.Errorf("plan after add+remove = %s, want the original %s", s.PlanHash(), baseHash)
	}
	// Removing a stage invalidates nothing upstream: the engine answers
	// the restored pipeline entirely from its memo.
	if t3.ExecutionsDelta != 0 {
		t.Errorf("executions delta after revert = %d, want 0 (full memo hit)", t3.ExecutionsDelta)
	}
}

// TestSessionFreshPromptResets: an utterance that names an input file is
// a new request, not an edit — the session replaces its plan.
func TestSessionFreshPromptResets(t *testing.T) {
	s := newSession(t, "gpt-4")
	if _, err := s.Turn(context.Background(), testPrompts()["isosurface"]); err != nil {
		t.Fatal(err)
	}
	isoHash := s.PlanHash()
	t2, err := s.Turn(context.Background(), testPrompts()["volume"])
	if err != nil {
		t.Fatal(err)
	}
	if !t2.Artifact.Success {
		t.Fatal("fresh second request failed")
	}
	if t2.ParentPlanHash != "" {
		t.Error("fresh request recorded a parent plan")
	}
	if s.PlanHash() == isoHash {
		t.Error("fresh request did not replace the session plan")
	}
}

// TestSessionObserverStreamsEvents: lifecycle and stage events arrive in
// order while turns run.
func TestSessionObserverStreamsEvents(t *testing.T) {
	var events []Event
	model, _ := llm.NewModel("gpt-4")
	s, err := NewSession(model, testRunner(t), WithObserver(func(ev Event) {
		events = append(events, ev)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Turn(context.Background(), testPrompts()["isosurface"]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Turn(context.Background(), "Raise the isovalue to 0.6."); err != nil {
		t.Fatal(err)
	}
	if len(events) < 6 {
		t.Fatalf("only %d events observed", len(events))
	}
	if events[0].Type != EventTurnStarted || events[0].Turn != 1 {
		t.Errorf("first event = %+v", events[0])
	}
	last := events[len(events)-1]
	if last.Type != EventTurnFinished || last.Turn != 2 || !last.Success {
		t.Errorf("last event = %+v", last)
	}
	sawStage := map[string]bool{}
	for _, ev := range events {
		if ev.Type == EventStage {
			sawStage[ev.Stage] = true
		}
	}
	for _, want := range []string{StageGenerate, StageEdit, StageEditValidate + "-1", StageExec + "-1"} {
		if !sawStage[want] {
			t.Errorf("no %q stage event (saw %v)", want, sawStage)
		}
	}
}

// TestSessionSeededFromPlan: a rehydrated session (NewSessionFrom) edits
// without re-running the generation flow and numbers its turns on from
// the earlier ones; its first edit turn pays a cold full execution, the
// next is incremental again.
func TestSessionSeededFromPlan(t *testing.T) {
	build := newSession(t, "gpt-4")
	t1, err := build.Turn(context.Background(), testPrompts()["isosurface"])
	if err != nil || !t1.Artifact.Success {
		t.Fatalf("setup turn failed: %v", err)
	}

	model, _ := llm.NewModel("gpt-4")
	s, err := NewSessionFrom(model, testRunner(t), t1.Artifact.Plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.PlanHash() != build.PlanHash() {
		t.Fatal("seed plan hash mismatch")
	}
	t2, err := s.Turn(context.Background(), "Raise the isovalue to 0.7.")
	if err != nil {
		t.Fatal(err)
	}
	if !t2.Artifact.Success {
		t.Fatalf("seeded edit failed: %s", t2.Artifact.Iterations[0].Output)
	}
	if t2.Index != 2 || t2.Artifact.TurnIndex != 2 {
		t.Errorf("the seeded session's first turn is numbered %d (artifact %d), want 2", t2.Index, t2.Artifact.TurnIndex)
	}
	if t2.ExecutionsDelta != 2 {
		t.Errorf("cold seeded turn executed %d stages, want 2", t2.ExecutionsDelta)
	}
	t3, err := s.Turn(context.Background(), "Raise the isovalue to 0.9.")
	if err != nil {
		t.Fatal(err)
	}
	if t3.ExecutionsDelta != 1 {
		t.Errorf("warm turn executed %d stages, want 1", t3.ExecutionsDelta)
	}
}

// TestRunWrapperStaysSingleTurn: the compatibility wrapper runs one turn
// with the classic trace shape: one execution stage per correction
// round and nothing after the last one.
func TestRunWrapperStaysSingleTurn(t *testing.T) {
	a := newAssistant(t, "gpt-4")
	art, err := a.Run(context.Background(), testPrompts()["isosurface"])
	if err != nil {
		t.Fatal(err)
	}
	execs := 0
	for _, st := range art.Trace.Stages {
		if strings.HasPrefix(st.Stage, StageExec+"-") {
			execs++
		}
	}
	if execs != art.NumIterations() {
		t.Errorf("%d exec stages for %d iterations", execs, art.NumIterations())
	}
	if last := art.Trace.Stages[len(art.Trace.Stages)-1].Stage; last != fmt.Sprintf("%s-%d", StageExec, art.NumIterations()) {
		t.Errorf("last stage = %q, want the final execution", last)
	}
	if art.TurnIndex != 1 {
		t.Errorf("TurnIndex = %d, want 1", art.TurnIndex)
	}
}

// TestColorEditNamingContourKeepsFilters: "Color the contour red." on an
// isosurface session must not reset the isovalue (0.3) to the default
// 0.5, and on a clip session
// must not add a Contour stage: the filter stages stay as they were and
// nothing re-executes.
func TestColorEditNamingContourKeepsFilters(t *testing.T) {
	for name, first := range map[string]string{
		"iso":  strings.Replace(testPrompts()["isosurface"], "at value 0.5.", "at value 0.3.", 1),
		"clip": `Please generate a ParaView Python script for the following operations. Read in the file named 'ml-100.vtk'. Clip the data with a y-z plane at x=0, keeping the -x half of the data and removing the +x half. Color the result by the var0 data array. Rotate the view to an isometric direction. Save a screenshot of the result in the filename 'ml-clip-screenshot.png'. The rendered view and saved screenshot should be 320 x 180 pixels.`,
	} {
		t.Run(name, func(t *testing.T) {
			s := newSession(t, "gpt-4")
			t1, err := s.Turn(context.Background(), first)
			if err != nil || !t1.Artifact.Success {
				t.Fatalf("first turn: err=%v success=%v", err, t1 != nil && t1.Artifact.Success)
			}
			before := filterStages(t, s.CurrentPlan())
			t2, err := s.Turn(context.Background(), "Color the contour red.")
			if err != nil || !t2.Artifact.Success {
				t.Fatalf("colour turn: err=%v", err)
			}
			if after := filterStages(t, s.CurrentPlan()); after != before {
				t.Errorf("filter stages changed:\nbefore %s\nafter  %s", before, after)
			}
			if t2.ExecutionsDelta != 0 {
				t.Errorf("colour edit executed %d stages, want 0", t2.ExecutionsDelta)
			}
		})
	}
}

// filterStages renders a plan's filter stages for comparison.
func filterStages(t *testing.T, p *plan.Plan) string {
	t.Helper()
	var out []string
	for _, st := range p.Stages {
		if st.Kind == plan.StageFilter {
			blob, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(blob))
		}
	}
	return strings.Join(out, "\n")
}

// TestStageDurationsComeFromSpans pins one clock per stage: in a traced
// two-turn session, every StageTrace's Duration is exactly the duration
// its span ended with (llm.<stage> for model calls, plan.validate for
// validation, script.exec or engine.exec-plan for execution).
func TestStageDurationsComeFromSpans(t *testing.T) {
	s := newSession(t, "gpt-4", WithPlanValidation(true))
	tr := obs.NewTracer("test", 8)
	ctx, root := obs.Start(obs.WithTracer(context.Background(), tr), "test")
	var stages []StageTrace
	for _, prompt := range []string{testPrompts()["isosurface"], "Raise the isovalue to 0.7."} {
		turn, err := s.Turn(ctx, prompt)
		if err != nil {
			t.Fatal(err)
		}
		if !turn.Artifact.Success {
			t.Fatalf("turn %d failed", turn.Index)
		}
		stages = append(stages, turn.Artifact.Trace.Stages...)
	}
	root.End()
	td, ok := tr.Get(root.Context().TraceID)
	if !ok {
		t.Fatal("trace not retained")
	}
	spanFor := func(st StageTrace) string {
		switch {
		case strings.HasPrefix(st.Stage, StageExec+"-"):
			return "exec"
		case strings.HasPrefix(st.Stage, StageValidate+"-"), strings.HasPrefix(st.Stage, StageEditValidate+"-"):
			return "plan.validate"
		}
		return "llm." + st.Stage
	}
	used := map[string]bool{}
	for _, st := range stages {
		want, found := spanFor(st), false
		for _, sp := range td.Spans {
			name := sp.Name
			if name == "script.exec" || name == "engine.exec-plan" {
				name = "exec"
			}
			if name == want && sp.Duration == st.Duration && !used[sp.SpanID] {
				used[sp.SpanID], found = true, true
				break
			}
		}
		if !found {
			t.Errorf("stage %s (%v) has no %s span of the same duration", st.Stage, st.Duration, want)
		}
	}
	if len(stages) < 6 {
		t.Errorf("%d stages over two turns, want rewrite, generate, validate and exec, then edit, validate and exec", len(stages))
	}
}
