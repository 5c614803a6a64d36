// Command evalrunner regenerates the paper's evaluation artifacts:
// Table I (generated scripts), Table II (LLM comparison grid) and the
// image comparisons behind Figures 2-6. The grid sweeps scenarios ×
// models concurrently with a shared ground-truth cache; results are
// printed (with per-cell session traces) and written to a markdown
// report. Ctrl-C cancels the sweep.
//
// Usage:
//
//	evalrunner -data ./data -out ./out                 # everything
//	evalrunner -task iso                               # one figure
//	evalrunner -table2 -workers 8                      # only the grid
//	evalrunner -full -width 1920 -height 1080          # paper scale
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"chatvis/internal/eval"
	"chatvis/internal/imgcmp"
	"chatvis/internal/llm"
	"chatvis/internal/route"
)

// scenarioIDs lists every scenario -task accepts.
func scenarioIDs() string {
	var ids []string
	for _, s := range eval.Scenarios() {
		ids = append(ids, s.ID)
	}
	return strings.Join(ids, ", ")
}

func main() {
	var (
		dataDir = flag.String("data", "data", "dataset directory (populated on demand)")
		outDir  = flag.String("out", "out", "output directory for screenshots and the report")
		width   = flag.Int("width", 480, "render width")
		height  = flag.Int("height", 270, "render height")
		full    = flag.Bool("full", false, "paper-scale datasets")
		task    = flag.String("task", "", "run a single scenario: "+scenarioIDs())
		table2  = flag.Bool("table2", false, "run only the Table II grid")
		table1  = flag.Bool("table1", false, "run only the Table I script pair")
		multi   = flag.Bool("multiturn", false, "run only the multi-turn conversation track")
		workers = flag.Int("workers", 2*runtime.NumCPU(), "grid worker pool size")
		stats   = flag.Bool("stats", true, "print per-cell session traces (duration, LLM calls, tokens)")
		routed  = flag.Bool("route", false, "route assisted-pipeline calls through measured model profiles")
		prof    = flag.String("profiles", "profiles.json", "calibrated profile store (see cmd/calibrate)")
	)
	flag.Parse()
	if *workers < 1 {
		*workers = 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		// First signal cancels the sweep; unregistering the handler then
		// lets a second Ctrl-C kill the process immediately instead of
		// being swallowed while workers drain.
		<-ctx.Done()
		stop()
	}()

	cfg := eval.Config{
		DataDir: *dataDir,
		OutDir:  *outDir,
		Width:   *width,
		Height:  *height,
	}
	if *full {
		cfg.DataSize = eval.DataFull
	}
	var router *route.Router
	if *routed {
		store, err := route.OpenProfileStore(*prof)
		if err != nil {
			fatal(err)
		}
		if store.Len() == 0 {
			fatal(fmt.Errorf("profile store %s is empty; run cmd/calibrate first", *prof))
		}
		router = route.NewRouter(store.Latest(), nil)
		cfg.PipelineClient = func(defaultModel string) (llm.Client, error) {
			return router.Client(defaultModel, llm.NewModel), nil
		}
		fmt.Printf("routing assisted calls via %s (%d live profiles)\n", *prof, store.Latest().Len())
	}
	runGrid := func() (*eval.Table2, error) {
		start := time.Now()
		t2, err := cfg.RunGrid(ctx, *workers)
		if err != nil {
			return nil, err
		}
		fmt.Printf("grid completed in %v (%d workers, shared ground truth)\n\n", time.Since(start).Round(time.Millisecond), *workers)
		return t2, nil
	}

	switch {
	case *task != "":
		scn, ok := eval.ScenarioByID(*task)
		if !ok {
			fatal(fmt.Errorf("unknown task %q", *task))
		}
		cell, art, err := cfg.RunChatVis(ctx, scn)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s (%s): error-free=%v screenshot=%v\n",
			scn.Figure, scn.Row, cell.ErrorFree, cell.Screenshot)
		fmt.Printf("  vs ground truth: %s\n", cell.Metrics)
		fmt.Printf("\nsession trace:\n%s", art.Trace.Format())
		g4, _, err := cfg.RunUnassisted(ctx, "gpt-4", scn)
		if err != nil {
			fatal(err)
		}
		if g4.ErrorFree && g4.Metrics != (imgcmp.Metrics{}) {
			fmt.Printf("\nGPT-4 vs ground truth: %s (match=%v)\n", g4.Metrics, g4.Screenshot)
		} else {
			fmt.Println("\nGPT-4: no image (script failed)")
		}
	case *table1:
		t1, err := cfg.RunTable1(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Println(t1.Format())
	case *multi:
		mt, err := cfg.RunMultiTurn(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Println(mt.Format())
	case *table2:
		t2, err := runGrid()
		if err != nil {
			fatal(err)
		}
		fmt.Println(t2.Format())
		if *stats {
			fmt.Printf("\nper-cell session traces:\n%s", t2.FormatStats())
		}
	default:
		fmt.Printf("running Table II grid (6 models x 5 tasks, %d workers)...\n", *workers)
		t2, err := runGrid()
		if err != nil {
			fatal(err)
		}
		fmt.Println(t2.Format())
		if *stats {
			fmt.Printf("\nper-cell session traces:\n%s\n", t2.FormatStats())
		}
		fmt.Println("running Table I script pair...")
		t1, err := cfg.RunTable1(ctx)
		if err != nil {
			fatal(err)
		}
		var figs []*eval.FigureResult
		for _, scn := range eval.Scenarios() {
			fmt.Printf("running %s (%s)...\n", scn.Figure, scn.ID)
			fig, err := cfg.RunFigure(ctx, scn)
			if err != nil {
				fatal(err)
			}
			figs = append(figs, fig)
			fmt.Printf("  ChatVis vs GT: %s (match=%v)\n", fig.ChatVis, fig.ChatVisMatches)
		}
		fmt.Println("running multi-turn conversations...")
		mt, err := cfg.RunMultiTurn(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Println(mt.Format())
		var routing *eval.RoutingTable
		if router != nil {
			routing = route.Report(router, *prof)
			fmt.Printf("routing decisions:\n%s\n", routing.Format())
		}
		report := filepath.Join(*outDir, "report.md")
		if err := eval.WriteReport(report, t2, t1, figs, mt, routing); err != nil {
			fatal(err)
		}
		fmt.Printf("report written to %s\n", report)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "evalrunner:", err)
	os.Exit(1)
}
