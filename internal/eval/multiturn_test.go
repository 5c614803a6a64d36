package eval

import (
	"context"
	"strings"
	"testing"
)

// TestMultiTurnScenariosScoreHigh runs the full conversational track:
// every scenario's every turn must complete error-free, with per-turn
// plan similarity at (or extremely near) 1.0 against that turn's
// ground-truth plan — the conversational counterpart of the one-shot
// plan-accuracy table. This is the acceptance criterion: ≥ 3 multi-turn
// scenarios, scored per turn.
func TestMultiTurnScenariosScoreHigh(t *testing.T) {
	c := testConfig(t)
	mt, err := c.RunMultiTurn(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(mt.Results) < 3 {
		t.Fatalf("only %d multi-turn scenarios, want >= 3", len(mt.Results))
	}
	for _, r := range mt.Results {
		if len(r.Turns) < 2 {
			t.Errorf("%s: only %d turns", r.ID, len(r.Turns))
			continue
		}
		for i, tr := range r.Turns {
			if !tr.ErrorFree {
				t.Errorf("%s turn %d: not error-free", r.ID, i+1)
			}
			if tr.PlanScore.Overall < 0.95 {
				t.Errorf("%s turn %d: plan similarity %.2f, want >= 0.95 (%s)",
					r.ID, i+1, tr.PlanScore.Overall, tr.PlanScore)
			}
		}
	}
}

// TestMultiTurnEditTurnsAreIncremental: edit turns must recompute fewer
// pipeline stages than the whole plan — the session-engine memoization
// observed through the eval track.
func TestMultiTurnEditTurnsAreIncremental(t *testing.T) {
	c := testConfig(t).withDefaults()
	if err := EnsureData(c.DataDir, c.DataSize); err != nil {
		t.Fatal(err)
	}
	var mts MultiTurnScenario
	for _, s := range MultiTurnScenarios() {
		if s.ID == "iso-touchup" {
			mts = s
		}
	}
	if mts.ID == "" {
		t.Fatal("iso-touchup scenario missing")
	}
	res, err := c.runMultiTurnScenario(context.Background(), mts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Turns) != 2 {
		t.Fatalf("turns = %d", len(res.Turns))
	}
	// Turn 1 seeds the engine with the full pipeline (2 stages); the
	// value edit recomputes exactly the contour.
	if res.Turns[0].ExecutionsDelta != 2 {
		t.Errorf("turn 1 executions = %d, want 2", res.Turns[0].ExecutionsDelta)
	}
	if res.Turns[1].ExecutionsDelta != 1 {
		t.Errorf("turn 2 executions = %d, want 1 (incremental)", res.Turns[1].ExecutionsDelta)
	}
}

// TestMultiTurnFormatHasPerTurnColumns pins the report layout the
// acceptance criterion names.
func TestMultiTurnFormatHasPerTurnColumns(t *testing.T) {
	c := testConfig(t)
	mt, err := c.RunMultiTurn(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := mt.Format()
	for _, want := range []string{"turn 1 plan-sim", "turn 2 plan-sim", "re-exec"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}
}
