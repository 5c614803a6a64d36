// Command e2ebench is the repository's end-to-end request benchmark. It
// starts a fresh chatvisd for each run, drives a seed-generated
// workload through the public HTTP API with a closed loop of clients,
// checks every output, and prints the end-to-end metrics (--trace 0) or
// the per-layer breakdown from the daemon's own spans and counters
// (--trace 1). See README.md in this directory.
//
//	bash e2ebench/run.sh --workload cold-mix --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"chatvis/internal/eval"
)

// setupRuns is how many times a --trace 0 run launches a daemon to time
// set-up; the median is reported. Half the launches come before the
// timed loop, and the last of those serves the run; the other half come
// after the output checks. Each launch that does not serve is followed
// by setupGap. One launch takes about 50 ms, and a shared host's speed
// drifts over seconds, so launches back to back would all time the same
// moment; spread out, the median spans the run like the other metrics.
const (
	setupRuns = 12
	setupGap  = 500 * time.Millisecond
)

// runSlack bounds everything a run does besides its timed loop: set-up,
// priming, trace pulls and the output checks.
const runSlack = 150 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
}

// Paths under the checkout: run.sh builds the daemon into binPath, and
// each run keeps its daemons' state and its result file under workDir.
const (
	binPath = ".bench_build/bin/chatvisd"
	workDir = ".bench_build/e2ebench"
)

func runMain(args []string) int {
	var o options
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", wlCold, "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 20, "timed closed-loop length per run")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A wedged daemon must not hold the run past its budget.
	ctx, cancel := context.WithTimeout(ctx, time.Duration(o.seconds)*time.Second+runSlack)
	defer cancel()
	res, err := execute(ctx, o)
	// Every exit path kills the daemons before the state dirs go.
	running.stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	out, err := json.Marshal(res.line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if err := res.save(o); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: saving result:", err)
	}
	fmt.Println(string(out))
	if !res.line.Correct {
		return 1
	}
	return 0
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

type result struct {
	meta meta
	line resultLine
}

func execute(ctx context.Context, o options) (*result, error) {
	if _, err := os.Stat(binPath); err != nil {
		return nil, fmt.Errorf("chatvisd binary: %w (build it with e2ebench/run.sh)", err)
	}
	bin, err := filepath.Abs(binPath)
	if err != nil {
		return nil, err
	}
	runDir, err := filepath.Abs(filepath.Join(workDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		running.stopAll()
		os.RemoveAll(runDir)
	}()
	m := readMeta()
	fmt.Printf("e2ebench %s seed=%d seconds=%d trace=%d clients=%d\n", o.workload, o.seed, o.seconds, o.trace, clients)
	fmt.Printf("meta %s\n", m)
	if o.trace == 0 {
		return runUntraced(ctx, o, bin, runDir, m)
	}
	return runTraced(ctx, o, bin, runDir, m)
}

// launch starts a daemon in a fresh directory and sends the warm-up
// request; the elapsed time is the set-up time (it includes the
// daemon's on-demand dataset generation).
func launch(ctx context.Context, bin, dir string) (*daemon, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(ctx, bin, dir)
	if err != nil {
		return nil, 0, err
	}
	// The warm-up is a volume rendering: it runs no filter, so it leaves
	// no stage in the dataset cache that a timed request could reuse,
	// and its size lies outside every workload's resolution range, so it
	// never answers a timed request from the store.
	scn, _ := eval.ScenarioByID("volume")
	w, h := 200, 112
	v, _, _, err := newClient(d.base, false).submitJob(ctx, "", &jobSpec{
		Model: "gpt-4", Prompt: scn.UserPrompt(w, h), Width: w, Height: h})
	if err == nil && (v.Status != "succeeded" || v.Result == nil || !v.Result.Success) {
		err = fmt.Errorf("warm-up job %s: %s %s", v.ID, v.Status, v.Error)
	}
	if err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return d, time.Since(start), nil
}

// phaseResult is one timed phase's raw outcome.
type phaseResult struct {
	samples       []*sample
	wall          time.Duration
	cpu           time.Duration
	hwmKB         int64 // peak RSS after hwmAt requests
	hwmAt         int
	hwmEndKB      int64 // peak RSS at the end of the loop
	before, after promMetrics
	scrapeErr     error
}

// runPhase runs one closed loop of the given length on d.
func runPhase(ctx context.Context, o options, d *daemon, seconds float64, traced bool) (*phaseResult, error) {
	gen, err := newGenerator(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	p := &phase{d: d, c: newClient(d.base, traced), gen: gen, traced: traced, rssAfter: rssAfter[o.workload]}
	if o.workload == wlRepeat {
		if err := p.prime(ctx); err != nil {
			return nil, err
		}
	}
	pr := &phaseResult{}
	pr.before, pr.scrapeErr = scrapeMetrics(ctx, p.c)
	s0, err := d.stats()
	if err != nil {
		return nil, err
	}
	p.deadline = time.Now().Add(time.Duration(seconds * float64(time.Second)))
	pr.wall = p.loop(ctx)
	s1, err := d.stats()
	if err != nil {
		return nil, err
	}
	if pr.scrapeErr == nil {
		pr.after, pr.scrapeErr = scrapeMetrics(ctx, p.c)
	}
	if p.genErr != nil {
		return nil, fmt.Errorf("generator: %w", p.genErr)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pr.samples, pr.cpu, pr.hwmEndKB = p.samples, s1.cpu-s0.cpu, s1.vmHWMKB
	pr.hwmKB, pr.hwmAt = p.rssKB.Load(), p.rssAfter
	if len(pr.samples) == 0 {
		return nil, errors.New("no request completed in the timed phase")
	}
	gt := newGroundTruther(filepath.Join(d.dir, "data"), filepath.Join(d.dir, "gt"))
	if err := checkImages(ctx, pr.samples, gt); err != nil {
		return nil, err
	}
	return pr, nil
}

func runUntraced(ctx context.Context, o options, bin, runDir string, m meta) (*result, error) {
	var setups []float64
	// timeLaunch launches a daemon and records its set-up time. Unless
	// it is to serve the run, the daemon is stopped, its state removed,
	// and the next launch waits setupGap.
	timeLaunch := func(i int, serve bool) (*daemon, error) {
		dir := filepath.Join(runDir, fmt.Sprintf("daemon-%d", i))
		d, took, err := launch(ctx, bin, dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if serve {
			return d, nil
		}
		d.stop()
		os.RemoveAll(dir)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(setupGap):
			return nil, nil
		}
	}
	for i := 0; i < setupRuns/2-1; i++ {
		if _, err := timeLaunch(i, false); err != nil {
			return nil, err
		}
	}
	d, err := timeLaunch(setupRuns/2-1, true)
	if err != nil {
		return nil, err
	}
	pr, err := runPhase(ctx, o, d, float64(o.seconds), false)
	d.stop()
	if err != nil {
		return nil, err
	}
	if pr.hwmKB == 0 {
		// peak_rss_mb is defined at a fixed request count only; the
		// end-of-run VmHWM of a shorter run is a different quantity.
		return nil, fmt.Errorf("the run served %d requests, fewer than the %d after which peak_rss_mb is read",
			len(pr.samples), pr.hwmAt)
	}
	for i := setupRuns / 2; i < setupRuns; i++ {
		if _, err := timeLaunch(i, false); err != nil {
			return nil, err
		}
	}
	e2e, extra := endToEnd(setups, pr, o.workload)
	return report(o, m, pr.samples, e2e, extra), nil
}

// endToEnd derives the end-to-end metrics (the result line) and the
// session turn split (printed beside them).
func endToEnd(setups []float64, pr *phaseResult, workload string) (*metricSet, *metricSet) {
	var e2e, extra metricSet
	half := len(setups) / 2
	e2e.add("setup_s", median(setups), "s", len(setups), fmt.Sprintf(
		"median of launches; %.4f s before the loop, %.4f s after", median(setups[:half]), median(setups[half:])))
	lat := latencies(pr.samples, "")
	e2e.addPercentile("latency_p50_ms", lat, 50, "no requests")
	e2e.addPercentile("latency_p95_ms", lat, 95, "no requests")
	n := float64(len(pr.samples))
	e2e.add("throughput_rps", n/pr.wall.Seconds(), "req/s", len(pr.samples), "")
	e2e.add("cpu_ms_per_req", ms(pr.cpu)/n, "ms", len(pr.samples), "")
	e2e.add("peak_rss_mb", float64(pr.hwmKB)/1024, "MB", 0,
		fmt.Sprintf("VmHWM after %d requests; %.1f MB at the end", pr.hwmAt, float64(pr.hwmEndKB)/1024))
	addTurnSplit(&extra, pr.samples, workload)
	return &e2e, &extra
}

// addTurnSplit adds session-edit's first-turn and edit-turn latencies.
func addTurnSplit(m *metricSet, samples []*sample, workload string) {
	why := "session-edit only"
	if workload == wlSession {
		why = "no samples"
	}
	m.addPercentile("first_turn_p50_ms", latencies(samples, "first"), 50, why)
	edits := latencies(samples, "edit")
	m.addPercentile("edit_turn_p50_ms", edits, 50, why)
	m.addPercentile("edit_turn_p95_ms", edits, 95, why)
}

// latencies returns the client-observed latencies in ms of samples of
// the given kind ("" = all).
func latencies(samples []*sample, kind string) []float64 {
	var out []float64
	for _, s := range samples {
		if kind == "" || s.kind == kind {
			out = append(out, ms(s.latency))
		}
	}
	return out
}

// report prints the human-readable block and builds the result line
// from the metrics set (the JSON carries exactly its names).
func report(o options, m meta, samples []*sample, reported, extra *metricSet) *result {
	failed := 0
	reasons := map[string]int{}
	for _, s := range samples {
		if s.failed {
			failed++
			reasons[s.reason]++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "requests %d, failed %d\n", len(samples), failed)
	fmt.Fprintf(&b, "  %-34s %.4f ratio  (n=%d)\n", "fail_ratio", float64(failed)/float64(len(samples)), len(samples))
	reported.print(&b)
	extra.print(&b)
	fmt.Print(b.String())
	if failed > 0 {
		keys := make([]string, 0, len(reasons))
		for k := range reasons {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return reasons[keys[i]] > reasons[keys[j]] })
		for i, k := range keys {
			if i == 10 {
				break
			}
			fmt.Fprintf(os.Stderr, "e2ebench: FAILED x%d: %s\n", reasons[k], k)
		}
	}
	return &result{meta: m, line: resultLine{
		Correct: failed == 0, Attempted: len(samples), Failed: failed,
		Metrics: reported.jsonMetrics(),
	}}
}

// save writes the result with its metadata under the work directory, for
// e2ebench compare.
func (r *result) save(o options) error {
	dir := filepath.Join(workDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(savedResult{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Meta: r.meta, Result: r.line,
	}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, o.trace)
	return os.WriteFile(filepath.Join(dir, name), blob, 0o644)
}
