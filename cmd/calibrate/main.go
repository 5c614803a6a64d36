// Command calibrate probes the model registry and writes the measured
// profile store that drives routing (chatvisd -route, evalrunner
// -route). Each model is probed per task kind — cold writes, edit-intent
// rewrites, plan deltas, plan-document repair — over a task-keyed slice
// of the evaluation grid; records append to a versioned JSON store, so
// re-calibration preserves history and routing always reads the latest
// record per (model, task).
//
// Usage:
//
//	calibrate -data ./data -out ./out -profiles profiles.json
//	calibrate -models gpt-4,codegemma -scenarios iso,slice
//
// Determinism and the cost ordering of the compiled routes are checked
// by the internal/route tests (`make calibrate-smoke`).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"chatvis/internal/eval"
	"chatvis/internal/route"
)

func main() {
	var (
		dataDir  = flag.String("data", "data", "dataset directory (populated on demand)")
		outDir   = flag.String("out", "out", "working directory for probe screenshots")
		profiles = flag.String("profiles", "profiles.json", "profile store to append to (versioned JSON)")
		models   = flag.String("models", "", "comma-separated models to probe (default: the paper's serving candidates)")
		scns     = flag.String("scenarios", "", "comma-separated probe scenario IDs (default: every registered scenario)")
		width    = flag.Int("width", 480, "render width")
		height   = flag.Int("height", 270, "render height")
		quiet    = flag.Bool("q", false, "suppress per-probe progress")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := route.CalibrateConfig{
		Eval: eval.Config{
			DataDir: *dataDir,
			OutDir:  *outDir,
			Width:   *width,
			Height:  *height,
		},
		Models:    splitList(*models),
		Scenarios: splitList(*scns),
	}
	if !*quiet {
		cfg.Log = func(format string, args ...interface{}) {
			fmt.Printf(format+"\n", args...)
		}
	}

	store, err := route.OpenProfileStore(*profiles)
	if err != nil {
		fatal(err)
	}
	records, err := route.Calibrate(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	if err := store.Append(records); err != nil {
		fatal(err)
	}
	fmt.Printf("appended %d records to %s (%d total)\n\n", len(records), store.Path(), store.Len())
	router := route.NewRouter(store.Latest(), nil)
	fmt.Println(route.Report(router, store.Path()).Format())
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "calibrate:", err)
	os.Exit(1)
}
