package eval

import (
	"context"
	"fmt"
	"image"
	"path/filepath"
	"sync"

	"chatvis/internal/llm"
)

// groundTruthCache renders each scenario's reference image at most once
// and shares it across grid cells. Safe for concurrent use: concurrent
// requests for the same scenario block on a single render (sync.Once per
// entry) instead of duplicating it.
type groundTruthCache struct {
	mu      sync.Mutex
	entries map[string]*gtEntry
}

type gtEntry struct {
	once sync.Once
	img  image.Image
	err  error
}

func newGroundTruthCache() *groundTruthCache {
	return &groundTruthCache{entries: map[string]*gtEntry{}}
}

// get returns the scenario's ground-truth image, rendering it on first
// use.
func (g *groundTruthCache) get(c Config, scn Scenario) (image.Image, error) {
	g.mu.Lock()
	e, ok := g.entries[scn.ID]
	if !ok {
		e = &gtEntry{}
		g.entries[scn.ID] = e
	}
	g.mu.Unlock()
	e.once.Do(func() {
		e.img, e.err = c.groundTruth(scn)
	})
	return e.img, e.err
}

// GridOptions tunes a grid sweep.
type GridOptions struct {
	// Workers is the size of the cell worker pool; values <= 1 run the
	// cells serially.
	Workers int
	// Models are the unassisted comparison columns; nil means the
	// paper's five (llm.PaperModels). The assisted ChatVis column always
	// runs first.
	Models []string
	// Scenarios are the grid rows; nil means the paper's five
	// (PaperScenarios — the extended scenarios are opt-in rows).
	Scenarios []Scenario
}

func (o GridOptions) withDefaults() GridOptions {
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.Models == nil {
		o.Models = llm.PaperModels()
	}
	if o.Scenarios == nil {
		o.Scenarios = PaperScenarios()
	}
	return o
}

// gridJob is one (scenario, model) cell of the sweep.
type gridJob struct {
	scn   Scenario
	model string
}

// RunGrid sweeps scenarios × models concurrently with `workers`
// goroutines, a shared ground-truth cache and per-cell isolated output
// directories. Cancelling the context aborts in-flight sessions and
// drains the queue.
func (c Config) RunGrid(ctx context.Context, workers int) (*Table2, error) {
	return c.RunGridOpts(ctx, GridOptions{Workers: workers})
}

// RunGridOpts is RunGrid with full control over the sweep shape.
func (c Config) RunGridOpts(ctx context.Context, opts GridOptions) (*Table2, error) {
	c = c.withDefaults()
	opts = opts.withDefaults()
	// Datasets are written once, before any worker starts, so the
	// stat-then-write inside EnsureData never races.
	if err := EnsureData(c.DataDir, c.DataSize); err != nil {
		return nil, err
	}

	t2 := &Table2{
		Models: append([]string{ChatVisModel}, opts.Models...),
		Cells:  map[string]map[string]CellResult{},
	}
	var jobs []gridJob
	for _, scn := range opts.Scenarios {
		t2.Tasks = append(t2.Tasks, scn.Row)
		t2.Cells[scn.Row] = map[string]CellResult{}
		for _, m := range t2.Models {
			jobs = append(jobs, gridJob{scn: scn, model: m})
		}
	}

	shared := newGroundTruthCache()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	jobCh := make(chan gridJob)
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobCh {
				if ctx.Err() != nil {
					continue // drain: a failure or cancellation is pending
				}
				outDir := filepath.Join(c.OutDir, "grid", job.model, job.scn.ID)
				cell, _, err := c.runCell(ctx, job.scn, job.model, shared, outDir)
				if err != nil {
					fail(fmt.Errorf("eval: %s on %s: %w", job.model, job.scn.ID, err))
					continue
				}
				mu.Lock()
				t2.Cells[job.scn.Row][job.model] = cell
				mu.Unlock()
			}
		}()
	}
	for _, job := range jobs {
		jobCh <- job
	}
	close(jobCh)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return t2, nil
}
