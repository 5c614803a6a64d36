package route

import (
	"context"
	"path/filepath"
	"testing"

	"chatvis/internal/eval"
	"chatvis/internal/llm"
)

func calibrateTestConfig(t *testing.T) CalibrateConfig {
	t.Helper()
	dir := t.TempDir()
	return CalibrateConfig{
		Eval: eval.Config{
			DataDir: filepath.Join(dir, "data"),
			OutDir:  filepath.Join(dir, "out"),
		},
		Scenarios: []string{"iso", "slice"},
	}
}

// TestCalibrateSimRegistry measures the built-in simulated registry and
// checks the routing consequences: structured plan tasks route to
// measurably cheaper models than cold writes, and only the strong
// models clear the write bar.
func TestCalibrateSimRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := calibrateTestConfig(t)
	records, err := Calibrate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	models := llm.PaperModels()
	if want := len(models) * len(llm.TaskKinds()); len(records) != want {
		t.Fatalf("got %d records, want %d (models × tasks)", len(records), want)
	}
	for i := range records {
		records[i].Seq = i + 1
	}
	r := NewRouter(NewProfileSet(records), nil)

	primary := map[llm.TaskKind]ModelProfile{}
	for _, v := range r.Routes() {
		primary[v.Task] = v.Ladder[0]
	}
	if got := primary[llm.TaskWrite].Model; got != "gpt-4" {
		t.Errorf("write primary = %q, want gpt-4 (only strong models clear the bar)", got)
	}
	if got := primary[llm.TaskPlanRepair].Model; got != "gpt-3.5-turbo" {
		t.Errorf("plan-repair primary = %q, want gpt-3.5-turbo (repair skill 1 suffices for document repair)", got)
	}
	// The acceptance gate: routed edit-intent and plan-repair serve from
	// measurably cheaper profiles than cold writes.
	writeCost := primary[llm.TaskWrite].CostWeight
	for _, task := range []llm.TaskKind{llm.TaskEditIntent, llm.TaskPlanDelta, llm.TaskPlanRepair} {
		p, ok := primary[task]
		if !ok {
			t.Fatalf("no route for %s", task)
		}
		if p.CostWeight >= writeCost {
			t.Errorf("%s routes to %s (cost %.2f), not cheaper than write's %.2f",
				task, p.Model, p.CostWeight, writeCost)
		}
	}
}

// TestCalibrateDeterministic runs the same probe corpus twice and
// expects identical measurements. `make calibrate-smoke` runs it with
// TestCalibrateSimRegistry.
func TestCalibrateDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := calibrateTestConfig(t)
	a, err := Calibrate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Calibrate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Model != b[i].Model || a[i].Task != b[i].Task {
			t.Fatalf("record order differs at %d: %s/%s vs %s/%s",
				i, a[i].Model, a[i].Task, b[i].Model, b[i].Task)
		}
		if a[i].Score != b[i].Score {
			t.Errorf("%s/%s score differs across runs: %v vs %v",
				a[i].Model, a[i].Task, a[i].Score, b[i].Score)
		}
		if a[i].ProbeHash != b[i].ProbeHash {
			t.Errorf("probe hash differs: %s vs %s", a[i].ProbeHash, b[i].ProbeHash)
		}
	}
}
