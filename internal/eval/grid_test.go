package eval

import (
	"context"
	"errors"
	"runtime"
	"testing"
)

// TestGridMatchesSerialSweep: the concurrent grid must produce the same
// Table II judgements as a one-worker sweep. Run with -race (the CI
// target does) this also exercises the worker pool and shared
// ground-truth cache for data races.
func TestGridMatchesSerialSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid is slow")
	}
	c := testConfig(t)
	serial, err := c.RunGrid(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	c2 := testConfig(t)
	grid, err := c2.RunGrid(context.Background(), 2*runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Tasks) != len(serial.Tasks) || len(grid.Models) != len(serial.Models) {
		t.Fatalf("grid shape %dx%d, serial %dx%d",
			len(grid.Tasks), len(grid.Models), len(serial.Tasks), len(serial.Models))
	}
	for _, task := range serial.Tasks {
		for _, m := range serial.Models {
			s, g := serial.Cells[task][m], grid.Cells[task][m]
			if s.ErrorFree != g.ErrorFree || s.Screenshot != g.Screenshot {
				t.Errorf("%s/%s: serial (err-free=%v ss=%v) != grid (err-free=%v ss=%v)",
					task, m, s.ErrorFree, s.Screenshot, g.ErrorFree, g.Screenshot)
			}
			if s.Iterations != g.Iterations {
				t.Errorf("%s/%s: iterations %d != %d", task, m, s.Iterations, g.Iterations)
			}
			if g.Duration == 0 || g.LLMCalls == 0 || g.Usage.TotalTokens() == 0 {
				t.Errorf("%s/%s: grid cell missing trace stats: %+v", task, m, g)
			}
		}
	}
}

// TestGridSmallConcurrent: a 2x3 sub-grid under a wide worker pool — the
// everyday-sized concurrency test that runs even in -short mode.
func TestGridSmallConcurrent(t *testing.T) {
	c := testConfig(t)
	iso, _ := ScenarioByID("iso")
	volume, _ := ScenarioByID("volume")
	t2, err := c.RunGridOpts(context.Background(), GridOptions{
		Workers:   8,
		Models:    []string{"gpt-4", "llama3-8b"},
		Scenarios: []Scenario{iso, volume},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Tasks) != 2 || len(t2.Models) != 3 {
		t.Fatalf("grid shape = %d tasks x %d models", len(t2.Tasks), len(t2.Models))
	}
	cv := t2.Cells["Isosurfacing"][ChatVisModel]
	if !cv.ErrorFree || !cv.Screenshot {
		t.Errorf("ChatVis iso cell = %+v", cv)
	}
	weak := t2.Cells["Volume rendering"]["llama3-8b"]
	if weak.ErrorFree {
		t.Error("llama3-8b should fail volume rendering")
	}
}

// TestGridCancellation: cancelling the context aborts the sweep promptly
// with the context's error.
func TestGridCancellation(t *testing.T) {
	c := testConfig(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.RunGrid(ctx, 4)
	if err == nil {
		t.Fatal("cancelled grid should error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestGroundTruthCacheRendersOnce: concurrent cells asking for the same
// scenario share one render.
func TestGroundTruthCacheRendersOnce(t *testing.T) {
	c := testConfig(t).withDefaults()
	if err := EnsureData(c.DataDir, c.DataSize); err != nil {
		t.Fatal(err)
	}
	scn, _ := ScenarioByID("iso")
	cache := newGroundTruthCache()
	const callers = 8
	imgs := make([]interface{}, callers)
	errs := make([]error, callers)
	done := make(chan int, callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			img, err := cache.get(c, scn)
			imgs[i], errs[i] = img, err
			done <- i
		}(i)
	}
	for i := 0; i < callers; i++ {
		<-done
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if imgs[i] != imgs[0] {
			t.Error("all callers should share the single rendered image")
		}
	}
}
