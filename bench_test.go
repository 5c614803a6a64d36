// Package chatvis_bench regenerates every table and figure of the paper
// as Go benchmarks, plus ablations over the assistant's design choices
// and micro-benchmarks of the engine substrates.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkTableN/BenchmarkFigN logs the reproduced rows; absolute
// timings are engine cost on this machine, not comparable to the paper's
// workstation numbers (see EXPERIMENTS.md).
package chatvis_bench

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"chatvis/internal/benchkernels"
	"chatvis/internal/chatvis"
	"chatvis/internal/datagen"
	"chatvis/internal/eval"
	"chatvis/internal/filters"
	"chatvis/internal/llm"
	"chatvis/internal/plan"
	"chatvis/internal/pvpython"
	"chatvis/internal/pvsim"
	"chatvis/internal/service"
	"chatvis/internal/vtkio"
)

// benchConfig builds a small-but-real evaluation config in a temp dir.
func benchConfig(b *testing.B) eval.Config {
	b.Helper()
	return eval.Config{
		DataDir: b.TempDir(),
		OutDir:  b.TempDir(),
		Width:   320,
		Height:  180,
	}
}

// --- Figures 2-6: one bench per figure -------------------------------------

func benchFigure(b *testing.B, id string) {
	cfg := benchConfig(b)
	scn, ok := eval.ScenarioByID(id)
	if !ok {
		b.Fatalf("unknown scenario %s", id)
	}
	var fig *eval.FigureResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = cfg.RunFigure(context.Background(), scn)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(fig.ChatVis.RMSE, "rmse-vs-gt")
	b.ReportMetric(fig.ChatVis.SSIM, "ssim-vs-gt")
	b.Logf("%s (%s): ChatVis %s match=%v", fig.Figure, fig.Task, fig.ChatVis, fig.ChatVisMatches)
	if fig.GPT4 != nil {
		b.Logf("%s: GPT-4 %s match=%v", fig.Figure, *fig.GPT4, fig.GPT4Matches)
	} else {
		b.Logf("%s: GPT-4 produced no image (script error)", fig.Figure)
	}
	if !fig.ChatVisMatches {
		b.Errorf("%s: ChatVis image does not match ground truth", fig.Figure)
	}
}

func BenchmarkFig2_Isosurfacing(b *testing.B)    { benchFigure(b, "iso") }
func BenchmarkFig3_SliceContour(b *testing.B)    { benchFigure(b, "slice") }
func BenchmarkFig4_VolumeRendering(b *testing.B) { benchFigure(b, "volume") }
func BenchmarkFig5_Delaunay(b *testing.B)        { benchFigure(b, "delaunay") }
func BenchmarkFig6_Streamlines(b *testing.B)     { benchFigure(b, "stream") }

// --- Table I: generated scripts for streamline tracing -----------------------

func BenchmarkTable1_GeneratedScripts(b *testing.B) {
	cfg := benchConfig(b)
	var t1 *eval.Table1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		t1, err = cfg.RunTable1(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Logf("Table I reproduction:\n%s", t1.Format())
	if !t1.ChatVisOK {
		b.Error("ChatVis streamline script must execute cleanly")
	}
	if t1.GPT4Error == "" {
		b.Error("GPT-4 streamline script should fail with AttributeError")
	}
}

// --- Table II: the full 6-model x 5-task comparison grid ---------------------

func BenchmarkTable2_LLMComparison(b *testing.B) {
	cfg := benchConfig(b)
	var t2 *eval.Table2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		t2, err = cfg.RunGrid(context.Background(), 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Logf("Table II reproduction:\n%s", t2.Format())
	// Assert the paper's shape: ChatVis all-pass; every other model fails
	// at least one criterion on every task except GPT-4's two error-free
	// rows.
	for _, task := range t2.Tasks {
		cv := t2.Cells[task]["ChatVis"]
		if !cv.ErrorFree || !cv.Screenshot {
			b.Errorf("ChatVis on %s: %+v", task, cv)
		}
	}
	okCount := 0
	for _, task := range t2.Tasks {
		if t2.Cells[task]["gpt-4"].ErrorFree {
			okCount++
		}
	}
	if okCount != 2 {
		b.Errorf("gpt-4 error-free rows = %d, paper reports 2", okCount)
	}
}

// --- Ablations over the assistant's design choices ---------------------------

// BenchmarkAblation_Iterations sweeps the correction-loop budget: with
// zero repair iterations ChatVis loses the tasks whose first drafts carry
// property slips; the loop recovers them.
func BenchmarkAblation_Iterations(b *testing.B) {
	for _, maxIter := range []int{1, 2, 5} {
		b.Run(fmt.Sprintf("maxIter=%d", maxIter), func(b *testing.B) {
			cfg := benchConfig(b)
			cfg.MaxIterations = maxIter
			if err := eval.EnsureData(cfg.DataDir, cfg.DataSize); err != nil {
				b.Fatal(err)
			}
			success := 0
			totalIters := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				success = 0
				totalIters = 0
				for _, scn := range eval.PaperScenarios() {
					cell, art, err := cfg.RunChatVis(context.Background(), scn)
					if err != nil {
						b.Fatal(err)
					}
					if cell.ErrorFree && cell.Screenshot {
						success++
					}
					totalIters += art.NumIterations()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(success), "tasks-solved")
			b.ReportMetric(float64(totalIters)/5, "avg-iterations")
			b.Logf("maxIter=%d: %d/5 tasks solved, avg iterations %.1f",
				maxIter, success, float64(totalIters)/5)
		})
	}
}

// BenchmarkAblation_FewShot sweeps the example library: without examples
// the base model hallucinates (the unassisted failure mode). The repair
// loop recovers the scripts that *error* — but not the volume-rendering
// script that runs cleanly and renders nothing, so the "correct
// screenshot" count drops. Examples also reduce iteration counts.
func BenchmarkAblation_FewShot(b *testing.B) {
	for _, shots := range []int{-1, 4, 0} { // none, partial, full library
		name := map[int]string{-1: "none", 4: "partial", 0: "full"}[shots]
		b.Run("examples="+name, func(b *testing.B) {
			cfg := benchConfig(b)
			cfg.FewShot = shots
			clean, correct, totalIters := 0, 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clean, correct, totalIters = 0, 0, 0
				for _, scn := range eval.PaperScenarios() {
					cell, art, err := cfg.RunChatVis(context.Background(), scn)
					if err != nil {
						b.Fatal(err)
					}
					if cell.ErrorFree {
						clean++
					}
					if cell.Screenshot {
						correct++
					}
					totalIters += art.NumIterations()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(clean), "tasks-error-free")
			b.ReportMetric(float64(correct), "tasks-correct-image")
			b.ReportMetric(float64(totalIters)/5, "avg-iterations")
			b.Logf("examples=%s: %d/5 error-free, %d/5 correct images, avg iterations %.1f",
				name, clean, correct, float64(totalIters)/5)
		})
	}
}

// BenchmarkAblation_Grounding compares grounding channels for the base
// model: few-shot snippets vs the full API reference (the paper's
// future-work idea of teaching the model ParaView's real function calls)
// vs nothing.
func BenchmarkAblation_Grounding(b *testing.B) {
	apiRef := pvsim.NewEngine("", "").APIReference().Format()
	cases := []struct {
		name    string
		fewShot int
		api     string
	}{
		{"examples", 0, ""},
		{"apidocs", -1, apiRef},
		{"none", -1, ""},
	}
	for _, tc := range cases {
		b.Run("grounding="+tc.name, func(b *testing.B) {
			dataDir := b.TempDir()
			if err := eval.EnsureData(dataDir, eval.DataSmall); err != nil {
				b.Fatal(err)
			}
			model, err := llm.NewModel("gpt-4")
			if err != nil {
				b.Fatal(err)
			}
			correct, iters := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				correct, iters = 0, 0
				for _, scn := range eval.PaperScenarios() {
					assistant, err := chatvis.NewAssistant(model,
						&pvpython.Runner{DataDir: dataDir, OutDir: b.TempDir()},
						chatvis.WithMaxIterations(5),
						chatvis.WithFewShot(tc.fewShot),
						chatvis.WithAPIReference(tc.api))
					if err != nil {
						b.Fatal(err)
					}
					art, err := assistant.Run(context.Background(), scn.UserPrompt(320, 180))
					if err != nil {
						b.Fatal(err)
					}
					if art.Success {
						correct++
					}
					iters += art.NumIterations()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(correct), "tasks-clean")
			b.ReportMetric(float64(iters)/5, "avg-iterations")
			b.Logf("grounding=%s: %d/5 clean, avg iterations %.1f", tc.name, correct, float64(iters)/5)
		})
	}
}

// BenchmarkScriptEval exercises the code-level evaluation on the
// streamline scripts: each is compiled, normalized and scored by
// plan-graph similarity against the scenario's reference plan — the
// paper's proposed large-scale evaluation path that needs no rendering.
func BenchmarkScriptEval(b *testing.B) {
	cfg := benchConfig(b)
	t1, err := cfg.RunTable1(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	scn, _ := eval.ScenarioByID("stream")
	ref := scn.ReferencePlan(cfg.Width, cfg.Height)
	schema := pvsim.PlanSchema()
	score := func(script string) plan.Score {
		c, err := plan.Compile(script, schema)
		if err != nil {
			return plan.Score{}
		}
		return plan.Similarity(plan.Normalize(c.Plan, schema), ref)
	}
	b.ResetTimer()
	var sCV, sG4 plan.Score
	for i := 0; i < b.N; i++ {
		sCV = score(t1.ChatVisScript)
		sG4 = score(t1.GPT4Script)
	}
	b.StopTimer()
	b.ReportMetric(sCV.Overall, "chatvis-score")
	b.ReportMetric(sG4.Overall, "gpt4-score")
	b.Logf("plan-graph accuracy: ChatVis %s | GPT-4 %s", sCV, sG4)
	if sCV.Overall <= sG4.Overall {
		b.Error("ChatVis script should score above unassisted GPT-4")
	}
}

// --- Grid throughput: one worker vs the concurrent grid runner ---------------

// BenchmarkGridThroughput sweeps the full 5-scenario x 5-model (+ChatVis)
// Table II grid with one worker and with 2xNumCPU workers. Both share
// one ground-truth render per scenario; the difference is how far the
// worker pool overlaps cells.
func BenchmarkGridThroughput(b *testing.B) {
	run := func(b *testing.B, sweep func(cfg eval.Config) (*eval.Table2, error)) {
		cfg := benchConfig(b)
		if err := eval.EnsureData(cfg.DataDir, cfg.DataSize); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t2, err := sweep(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if len(t2.Tasks) != 5 || len(t2.Models) != 6 {
				b.Fatalf("grid = %d tasks x %d models", len(t2.Tasks), len(t2.Models))
			}
		}
	}
	b.Run("1-worker", func(b *testing.B) {
		run(b, func(cfg eval.Config) (*eval.Table2, error) {
			return cfg.RunGrid(context.Background(), 1)
		})
	})
	b.Run("grid", func(b *testing.B) {
		workers := 2 * runtime.NumCPU()
		run(b, func(cfg eval.Config) (*eval.Table2, error) {
			return cfg.RunGrid(context.Background(), workers)
		})
	})
}

// --- Substrate micro-benchmarks ----------------------------------------------

func BenchmarkSubstrate_MarschnerLobbGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		datagen.MarschnerLobb(64)
	}
}

// The five substrate kernels benchcore also measures live in
// internal/benchkernels — one definition, so BENCH_substrate.json and
// `go test -bench BenchmarkSubstrate_` always agree on the workload.

func BenchmarkSubstrate_Isosurface64(b *testing.B) {
	benchkernels.Bench(b, "Substrate_Isosurface64")
}

func BenchmarkSubstrate_Delaunay500(b *testing.B) {
	cloud := datagen.CanPoints(36, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := filters.Delaunay3D(cloud); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrate_StreamTracer(b *testing.B) {
	benchkernels.Bench(b, "Substrate_StreamTracer")
}

func BenchmarkSubstrate_SurfaceRender(b *testing.B) {
	benchkernels.Bench(b, "Substrate_SurfaceRender")
}

func BenchmarkSubstrate_VolumeRayCast(b *testing.B) {
	benchkernels.Bench(b, "Substrate_VolumeRayCast")
}

func BenchmarkSubstrate_PvPythonExec(b *testing.B) {
	dataDir := b.TempDir()
	if err := vtkio.SaveLegacyVTK(filepath.Join(dataDir, "ml-100.vtk"),
		datagen.MarschnerLobb(16), "ml"); err != nil {
		b.Fatal(err)
	}
	scn, _ := eval.ScenarioByID("iso")
	script := scn.GroundTruthScript(160, 90)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner := &pvpython.Runner{DataDir: dataDir, OutDir: b.TempDir()}
		res := runner.Exec(script)
		if !res.OK() {
			b.Fatalf("script failed:\n%s", res.Output)
		}
	}
}

func BenchmarkSubstrate_ClipPolyData(b *testing.B) {
	benchkernels.Bench(b, "Substrate_ClipPolyData")
}

func BenchmarkSubstrate_SparseContour64(b *testing.B) {
	benchkernels.Bench(b, "Substrate_SparseContour64")
}

func BenchmarkSubstrate_SkewedClip(b *testing.B) {
	benchkernels.Bench(b, "Substrate_SkewedClip")
}

func BenchmarkSubstrate_ExtractSurface(b *testing.B) {
	benchkernels.Bench(b, "Substrate_ExtractSurface")
}

func BenchmarkSubstrate_EncodePNG(b *testing.B) {
	benchkernels.Bench(b, "Substrate_EncodePNG")
}

func BenchmarkSubstrate_VolumeClip(b *testing.B) {
	benchkernels.Bench(b, "Substrate_VolumeClip")
}

func BenchmarkSubstrate_SessionEditTurn(b *testing.B) {
	benchkernels.Bench(b, "Substrate_SessionEditTurn")
}

// --- Conversational-session benchmark ---------------------------------------

// BenchmarkSessionIncremental quantifies what the session API buys: the
// cost of a follow-up edit turn on a warm session (PlanDelta + plan
// validation + incremental ExecPlan of ONE changed stage) vs paying for
// a cold one-shot run of the equivalent request (prompt rewrite, script
// generation, full pipeline execution). The speedup is the amortized
// win every conversational refinement gets.
func BenchmarkSessionIncremental(b *testing.B) {
	b.Run("edit-turn-incremental", func(b *testing.B) {
		benchkernels.Bench(b, "Substrate_SessionEditTurn")
	})
	b.Run("cold-full-run", func(b *testing.B) {
		runner := benchkernels.SessionBenchRunner(b)
		model, err := llm.NewModel("oracle")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			assistant, err := chatvis.NewAssistant(model, runner)
			if err != nil {
				b.Fatal(err)
			}
			prompt := benchkernels.SessionEditBenchPrompt(fmt.Sprintf("0.%d", 1+(i%2)))
			art, err := assistant.Run(context.Background(), prompt)
			if err != nil {
				b.Fatal(err)
			}
			if !art.Success {
				b.Fatal("cold run failed")
			}
		}
	})
}

// --- Serving-layer benchmark -------------------------------------------------

// BenchmarkServiceThroughput measures the chatvisd serving path through
// service.Queue with the real ChatVis pipeline on the stub profile, and
// demonstrates the two dedup layers:
//
//   - unique: every request is distinct — each one costs a pipeline
//     execution (the raw serving floor).
//   - coalesced: bursts of 32 identical concurrent requests — the whole
//     burst shares ONE pipeline execution (singleflight).
//   - store-hit: the same request repeated — after the first execution
//     every submission is answered from the content-addressed store
//     with zero pipeline (and zero LLM) work.
func BenchmarkServiceThroughput(b *testing.B) {
	prompt := func(i int) string {
		// Distinct isovalues produce distinct prompts, keys and scripts.
		return fmt.Sprintf("Please generate a ParaView Python script for the following operations. Read in the file named ml-100.vtk. Generate an isosurface of the variable var0 at value %.4f. Save a screenshot of the result in the filename iso.png. The rendered view and saved screenshot should be 320 x 180 pixels.", 0.30+0.001*float64(i%400))
	}
	newQueue := func(b *testing.B) *service.Queue {
		b.Helper()
		store, err := service.NewStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		pipeline, _ := service.NewServingBackend(service.PipelineConfig{
			DataDir: b.TempDir(),
		})
		q, err := service.NewQueue(service.QueueOptions{
			Workers:  runtime.NumCPU(),
			Capacity: 4096,
			Pipeline: pipeline,
			Store:    store,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = q.Shutdown(ctx)
		})
		return q
	}
	submitAndWait := func(b *testing.B, q *service.Queue, req service.JobRequest) *service.Job {
		b.Helper()
		job, _, err := q.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		<-job.Done()
		if job.Status() != service.StatusSucceeded {
			b.Fatalf("job %s: %s (%s)", job.ID, job.Status(), job.Err())
		}
		return job
	}

	b.Run("unique", func(b *testing.B) {
		q := newQueue(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			submitAndWait(b, q, service.JobRequest{
				Prompt: prompt(i), SessionRequest: service.SessionRequest{Model: "oracle", Width: 320, Height: 180},
			})
		}
		b.StopTimer()
		// Prompts repeat after 400 iterations (store hits take over);
		// below that, every request costs exactly one execution.
		if int64(b.N) <= 400 {
			if got := q.Snapshot().Executed; got != int64(b.N) {
				b.Fatalf("executed = %d for %d unique requests", got, b.N)
			}
		}
	})

	b.Run("coalesced", func(b *testing.B) {
		const burst = 32
		q := newQueue(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := service.JobRequest{
				Prompt: prompt(i), SessionRequest: service.SessionRequest{Model: "oracle", Width: 320, Height: 180},
			}
			var wg sync.WaitGroup
			jobs := make([]*service.Job, burst)
			for j := 0; j < burst; j++ {
				wg.Add(1)
				go func(j int) {
					defer wg.Done()
					job, _, err := q.Submit(req)
					if err != nil {
						b.Error(err)
						return
					}
					jobs[j] = job
				}(j)
			}
			wg.Wait()
			for _, job := range jobs {
				if job == nil {
					b.Fatal("submission failed")
				}
				<-job.Done()
			}
		}
		b.StopTimer()
		snap := q.Snapshot()
		if b.N <= 400 && snap.Executed != int64(b.N) {
			b.Fatalf("coalescing broken: %d executions for %d bursts of %d identical requests",
				snap.Executed, b.N, burst)
		}
		b.ReportMetric(float64(snap.Submitted)/float64(snap.Executed), "requests/execution")
	})

	b.Run("store-hit", func(b *testing.B) {
		q := newQueue(b)
		req := service.JobRequest{
			Prompt: prompt(0), SessionRequest: service.SessionRequest{Model: "oracle", Width: 320, Height: 180},
		}
		submitAndWait(b, q, req) // prime the store
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			submitAndWait(b, q, req)
		}
		b.StopTimer()
		if got := q.Snapshot().Executed; got != 1 {
			b.Fatalf("store path executed %d pipelines, want 1", got)
		}
	})
}
