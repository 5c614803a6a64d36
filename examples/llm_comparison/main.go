// LLM comparison (a one-task slice of the paper's Table II): sweep
// ChatVis and every unassisted model over the Delaunay task with the
// concurrent grid runner and print the row plus per-session stats.
//
//	go run ./examples/llm_comparison
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"time"

	"chatvis/internal/eval"
)

func main() {
	cfg := eval.Config{
		DataDir: "example_out/data",
		OutDir:  "example_out/llm_comparison",
		Width:   480,
		Height:  270,
	}
	scn, _ := eval.ScenarioByID("delaunay")
	fmt.Printf("task: %s\n\n", scn.Row)

	// One grid row: scenarios × models in a worker pool, reference image
	// rendered once and shared.
	start := time.Now()
	t2, err := cfg.RunGridOpts(context.Background(), eval.GridOptions{
		Workers:   2 * runtime.NumCPU(),
		Scenarios: []eval.Scenario{scn},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-16s %-10s %-12s %-12s %-8s %s\n",
		"model", "error?", "screenshot?", "duration", "tokens", "first error")
	for _, m := range t2.Models {
		printRow(m, t2.Cells[scn.Row][m])
	}
	fmt.Printf("\nswept %d models in %v\n", len(t2.Models), time.Since(start).Round(time.Millisecond))
}

func printRow(name string, c eval.CellResult) {
	yn := func(v bool) string {
		if v {
			return "yes"
		}
		return "no"
	}
	fmt.Printf("%-16s %-10s %-12s %-12s %-8d %s\n",
		name, yn(!c.ErrorFree), yn(c.Screenshot),
		c.Duration.Round(time.Microsecond), c.Usage.TotalTokens(), c.FirstError)
}
