// Command benchcore runs the substrate micro-benchmarks (the
// BenchmarkSubstrate_* suite: isosurfacing, streamline tracing, surface
// rendering, volume ray casting and plane clipping) across a ladder of
// worker counts and writes a machine-readable perf record,
// BENCH_substrate.json, so future PRs can diff the perf trajectory of
// the hot path — time, allocations and parallel speedup — instead of
// eyeballing benchmark logs.
//
// Usage:
//
//	go run ./cmd/benchcore -out BENCH_substrate.json [-workers 1,4,8]
//	go run ./cmd/benchcore -diff BENCH_substrate.json [-allow-cpu-mismatch]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"chatvis/internal/benchkernels"
	"chatvis/internal/par"
)

// benchResult is one (benchmark, worker-count) measurement.
type benchResult struct {
	Name        string `json:"name"`
	Workers     int    `json:"workers"`
	Iterations  int    `json:"iterations"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	// SpeedupVsSerial is ns/op(workers=1) / ns/op(this run); 0 for the
	// serial run itself.
	SpeedupVsSerial float64 `json:"speedup_vs_serial,omitempty"`
}

// benchFile is the BENCH_substrate.json schema.
type benchFile struct {
	GeneratedUnix int64         `json:"generated_unix"`
	GoVersion     string        `json:"go_version"`
	GOMAXPROCS    int           `json:"gomaxprocs"`
	NumCPU        int           `json:"num_cpu"`
	Benchmarks    []benchResult `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "BENCH_substrate.json", "output JSON path")
	workers := flag.String("workers", "1,4,8",
		"comma-separated worker counts to measure; 1 is always included as the serial baseline")
	diff := flag.String("diff", "",
		"baseline JSON to diff against instead of writing: re-run the kernels and fail on >tolerance regressions in ns/op, allocs/op, B/op or parallel speedup")
	tolerance := flag.Float64("tolerance", 0.25,
		"allowed fractional regression per kernel and metric in -diff mode")
	allowCPUMismatch := flag.Bool("allow-cpu-mismatch", false,
		"in -diff mode, compare against a baseline recorded on different num_cpu/gomaxprocs: downgrade the refusal to a warning and gate only allocs/op and B/op (timing and speedup are not comparable across machines)")
	flag.Parse()

	counts, err := parseWorkerCounts(*workers)
	if err != nil {
		log.Fatalf("benchcore: -workers: %v", err)
	}

	// Validate the baseline before spending minutes on kernels.
	var baseline benchFile
	if *diff != "" {
		blob, err := os.ReadFile(*diff)
		if err != nil {
			log.Fatalf("benchcore: reading baseline: %v", err)
		}
		if err := json.Unmarshal(blob, &baseline); err != nil {
			log.Fatalf("benchcore: decoding baseline: %v", err)
		}
		// A baseline recorded on a different core count times different
		// machines, not different code: refuse the comparison up front
		// rather than failing (or worse, passing) on meaningless ratios.
		if mismatch := cpuMismatch(baseline); mismatch != "" {
			if !*allowCPUMismatch {
				log.Fatalf("benchcore: %s — timings are not comparable; re-record the baseline on this machine (make bench-core) or pass -allow-cpu-mismatch to gate allocation metrics only", mismatch)
			}
			fmt.Printf("WARNING: %s — gating allocs/op and B/op only; ns/op and speedup are skipped\n", mismatch)
		}
	}

	file := runBenchmarks(counts)

	if *diff != "" {
		timingComparable := cpuMismatch(baseline) == ""
		regressions, matched := compareBench(baseline, file, *tolerance, timingComparable)
		if matched == 0 {
			log.Fatalf("benchcore: no (kernel, workers) pair of %s matches this run — the gate compared nothing", *diff)
		}
		if len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Println("REGRESSION:", r)
			}
			os.Exit(1)
		}
		fmt.Printf("no kernel regressed beyond %.0f%% across %d matched entries vs %s\n",
			*tolerance*100, matched, *diff)
		return
	}

	blob, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		log.Fatalf("benchcore: %v", err)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		log.Fatalf("benchcore: %v", err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// cpuMismatch describes how the baseline's recording machine differs
// from this one, or "" when timings are comparable.
func cpuMismatch(baseline benchFile) string {
	if baseline.NumCPU != runtime.NumCPU() || baseline.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		return fmt.Sprintf("baseline was recorded with num_cpu=%d gomaxprocs=%d, this machine has num_cpu=%d gomaxprocs=%d",
			baseline.NumCPU, baseline.GOMAXPROCS, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	return ""
}

// parseWorkerCounts parses "1,4,8" into a sorted, deduplicated ladder
// that always starts at 1 (the serial baseline every speedup is
// relative to).
func parseWorkerCounts(s string) ([]int, error) {
	seen := map[int]bool{1: true}
	counts := []int{1}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("invalid worker count %q", part)
		}
		if !seen[n] {
			seen[n] = true
			counts = append(counts, n)
		}
	}
	for i := 1; i < len(counts); i++ {
		for j := i; j > 1 && counts[j] < counts[j-1]; j-- {
			counts[j], counts[j-1] = counts[j-1], counts[j]
		}
	}
	return counts, nil
}

// runBenchmarks measures every substrate kernel at each worker count,
// serial first so SpeedupVsSerial can be filled in as the ladder runs.
func runBenchmarks(counts []int) benchFile {
	file := benchFile{
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
	}
	for _, name := range benchkernels.Order {
		serialNs := int64(0)
		for _, w := range counts {
			par.SetWorkers(w)
			res := testing.Benchmark(func(b *testing.B) { benchkernels.Bench(b, name) })
			r := benchResult{
				Name:        name,
				Workers:     w,
				Iterations:  res.N,
				NsPerOp:     res.NsPerOp(),
				AllocsPerOp: res.AllocsPerOp(),
				BytesPerOp:  res.AllocedBytesPerOp(),
			}
			if w == 1 {
				serialNs = res.NsPerOp()
			} else if serialNs > 0 && res.NsPerOp() > 0 {
				r.SpeedupVsSerial = float64(serialNs) / float64(res.NsPerOp())
			}
			file.Benchmarks = append(file.Benchmarks, r)
			fmt.Printf("%-26s workers=%-2d %12d ns/op %10d B/op %8d allocs/op",
				name, w, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
			if r.SpeedupVsSerial > 0 {
				fmt.Printf("  %.2fx vs serial", r.SpeedupVsSerial)
			}
			fmt.Println()
		}
	}
	par.SetWorkers(0)
	return file
}
