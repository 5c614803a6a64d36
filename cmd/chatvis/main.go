// Command chatvis runs the conversational assistant on natural-language
// visualization requests, producing ParaView Python scripts and
// screenshots. Ctrl-C cancels the session cleanly mid-loop.
//
// One-shot:
//
//	chatvis -prompt "Read in the file named ml-100.vtk. ..." \
//	        -data ./data -out ./out -model gpt-4 -max-iter 5
//
// Interactive (multi-turn REPL; every later line edits the pipeline the
// first request built, re-executing only the stages it changes):
//
//	chatvis -interactive -data ./data -out ./out
//	chatvis> Read in the file named ml-100.vtk. Generate an isosurface ...
//	chatvis> Raise the isovalue to 0.7.
//	chatvis> Color the result by the var0 data array.
//
// -route serves each assisted stage from the cheapest calibrated model
// clearing its task's bar (docs/routing.md); routed turns report which
// models served them. -interactive composes with every other flag;
// -prompt then seeds the first turn. Both modes (and -unassisted) drive the same session API
// chatvisd serves. Generate the input datasets first with
// `datagen -dir ./data`.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"chatvis/internal/chatvis"
	"chatvis/internal/llm"
	"chatvis/internal/pvpython"
	"chatvis/internal/route"
)

func main() {
	var (
		prompt      = flag.String("prompt", "", "natural-language visualization request (required unless -interactive)")
		dataDir     = flag.String("data", "data", "directory containing input datasets")
		outDir      = flag.String("out", "out", "directory for screenshots and artifacts")
		modelName   = flag.String("model", "gpt-4", "LLM to use: "+strings.Join(llm.ModelNames(), ", "))
		maxIter     = flag.Int("max-iter", 5, "maximum error-correction iterations")
		fewShot     = flag.Int("few-shot", 0, "number of example snippets (0 = all, negative = none)")
		noRewrite   = flag.Bool("no-rewrite", false, "skip the prompt-generation stage")
		unassist    = flag.Bool("unassisted", false, "run the bare model without the assistant (comparison mode)")
		retries     = flag.Int("retries", 1, "LLM call attempts (middleware retry budget)")
		noCache     = flag.Bool("no-cache", false, "disable the LLM response cache")
		trace       = flag.Bool("trace", false, "print the per-stage session trace")
		verbose     = flag.Bool("v", false, "print per-iteration transcripts")
		interactive = flag.Bool("interactive", false, "multi-turn REPL: later lines edit the current pipeline")
		routed      = flag.Bool("route", false, "route assisted calls through measured model profiles (-model stays the fallback)")
		profiles    = flag.String("profiles", "profiles.json", "calibrated profile store (see cmd/calibrate)")
	)
	flag.Parse()
	if *prompt == "" && !*interactive {
		fmt.Fprintln(os.Stderr, "chatvis: -prompt is required (or use -interactive)")
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		// First signal cancels the session context so in-flight pipeline
		// stages unwind cleanly; unregistering the handler then lets a
		// second Ctrl-C kill the process immediately instead of being
		// swallowed while the drain finishes.
		<-ctx.Done()
		stop()
	}()

	base, err := llm.NewModel(*modelName)
	if err != nil {
		fatal(err)
	}
	// Production-shaped client stack: metrics around retry around cache.
	var metrics llm.Metrics
	mws := []llm.Middleware{llm.WithMetrics(&metrics), llm.WithRetry(*retries, 0)}
	if !*noCache {
		mws = append(mws, llm.WithCache())
	}
	model := llm.Chain(base, mws...)
	if *routed {
		if *unassist {
			fatal(fmt.Errorf("-route measures the assistant's task mix; it does not compose with -unassisted"))
		}
		store, err := route.OpenProfileStore(*profiles)
		if err != nil {
			fatal(err)
		}
		if store.Len() == 0 {
			fatal(fmt.Errorf("profile store %s is empty; run cmd/calibrate first", *profiles))
		}
		router := route.NewRouter(store.Latest(), nil)
		// Routed picks resolve through the same middleware stack so cache
		// and metrics behave identically either way.
		model = router.Client(*modelName, func(name string) (llm.Client, error) {
			picked, err := llm.NewModel(name)
			if err != nil {
				return nil, err
			}
			return llm.Chain(picked, mws...), nil
		})
		fmt.Printf("routing via %s (%d live profiles)\n", *profiles, store.Latest().Len())
	}
	runner := &pvpython.Runner{DataDir: *dataDir, OutDir: *outDir}

	// Both the one-shot and interactive paths drive the session API —
	// the same surface chatvisd serves.
	sess, err := chatvis.NewSession(model, runner,
		chatvis.WithMaxIterations(*maxIter),
		chatvis.WithFewShot(*fewShot),
		chatvis.WithRewrite(!*noRewrite),
		chatvis.WithUnassisted(*unassist))
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}

	runTurn := func(text string) (*chatvis.Turn, error) {
		turn, err := sess.Turn(ctx, text)
		if err != nil {
			return nil, err
		}
		return turn, reportTurn(turn, *outDir, *verbose, *trace, &metrics)
	}

	if !*interactive {
		turn, err := runTurn(*prompt)
		if err != nil {
			fatal(err)
		}
		if !turn.Artifact.Success {
			os.Exit(1)
		}
		return
	}

	// REPL mode: each line is one turn. A -prompt flag seeds turn 1.
	if *prompt != "" {
		if _, err := runTurn(*prompt); err != nil {
			fatal(err)
		}
	}
	scanner := bufio.NewScanner(os.Stdin)
	for {
		if ctx.Err() != nil {
			return
		}
		fmt.Print("chatvis> ")
		if !scanner.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(scanner.Text())
		switch line {
		case "":
			continue
		case "exit", "quit":
			return
		case "plan":
			if p := sess.CurrentPlan(); p != nil {
				fmt.Print(p.Script())
			} else {
				fmt.Println("(no plan yet — start with a full request)")
			}
			continue
		}
		if _, err := runTurn(line); err != nil {
			if ctx.Err() != nil {
				return
			}
			fmt.Fprintln(os.Stderr, "chatvis:", err)
		}
	}
}

// reportTurn prints a turn's outcome and writes the final script. A
// failed script write is returned (one-shot mode must exit non-zero for
// it; the REPL reports and continues).
func reportTurn(turn *chatvis.Turn, outDir string, verbose, trace bool, metrics *llm.Metrics) error {
	art := turn.Artifact
	if verbose {
		if art.GeneratedPrompt != art.UserPrompt {
			fmt.Printf("=== generated prompt ===\n%s\n", art.GeneratedPrompt)
		}
		for i, it := range art.Iterations {
			fmt.Printf("=== iteration %d script ===\n%s\n", i+1, it.Script)
			if it.Output != "" {
				fmt.Printf("=== iteration %d output ===\n%s\n", i+1, it.Output)
			}
		}
	}
	if trace {
		fmt.Printf("=== session trace ===\n%s", art.Trace.Format())
		s := metrics.Snapshot()
		fmt.Printf("client metrics: %d calls, %d errors, %d cache hits, %v total latency\n",
			s.Calls, s.Errors, s.CacheHits, s.TotalLatency)
	}

	scriptPath := filepath.Join(outDir, "generated_script.py")
	if err := os.WriteFile(scriptPath, []byte(art.FinalScript), 0o644); err != nil {
		return err
	}

	if art.Success {
		fmt.Printf("turn %d: success after %d iteration(s) in %v (%d tokens)\n",
			turn.Index, art.NumIterations(), art.Trace.TotalDuration().Round(1e6),
			art.Trace.TotalUsage().TotalTokens())
		// Only routed turns split across models; with routing off this
		// line never prints, keeping the default output byte-stable.
		if models := art.Trace.Models(); len(models) > 1 {
			fmt.Printf("  models: %s\n", strings.Join(models, ", "))
		}
		if turn.ParentPlanHash != "" {
			fmt.Printf("  delta: %s (%d stage(s) changed, %d re-executed)\n",
				turn.DeltaSummary, len(turn.ChangedStages), turn.ExecutionsDelta)
		}
		fmt.Printf("  script: %s\n", scriptPath)
		for _, s := range art.Screenshots {
			fmt.Printf("  screenshot: %s\n", s)
		}
		return nil
	}
	fmt.Printf("turn %d: failed after %d iteration(s)", turn.Index, art.NumIterations())
	if len(art.Iterations) > 0 {
		last := art.Iterations[len(art.Iterations)-1]
		fmt.Println("; last errors:")
		for _, e := range last.Errors {
			fmt.Printf("  %s: %s\n", e.Kind, e.Message)
		}
	} else {
		fmt.Println()
	}
	fmt.Printf("  script: %s\n", scriptPath)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chatvis:", err)
	os.Exit(1)
}
