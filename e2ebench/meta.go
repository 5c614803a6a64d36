package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// meta records what a result was measured on, so results from machines
// with different core counts are not compared as if they were alike.
type meta struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"` // the daemon's: it runs with the default
	NumCPU     int    `json:"nproc"`
	Commit     string `json:"commit"`
}

func (m meta) String() string {
	b, _ := json.Marshal(m)
	return string(b)
}

func readMeta() meta {
	m := meta{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.NumCPU(), Commit: commit()}
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		m.GOMAXPROCS = v
	}
	return m
}

// commit names the source the daemon was built from: the git commit in
// a clone, else a digest of the Go sources and go.mod (benchmark
// checkouts are exported trees without .git).
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	for _, root := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
	}
	files = append(files, "go.mod")
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// savedResult is the file each run leaves under <work>/results.
type savedResult struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Seconds  int        `json:"seconds"`
	Trace    int        `json:"trace"`
	Meta     meta       `json:"meta"`
	Result   resultLine `json:"result"`
}

// compareMain prints the metric ratios between two saved results and
// flags a comparison across core counts, whose timings do not carry
// over.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: e2ebench compare <base.json> <new.json>")
		return 2
	}
	var rs [2]savedResult
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &rs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench compare: %s: %v\n", path, err)
			return 1
		}
	}
	a, b := rs[0], rs[1]
	if a.Workload != b.Workload || a.Trace != b.Trace {
		fmt.Fprintf(os.Stderr, "e2ebench compare: %s/trace%d vs %s/trace%d are different runs\n",
			a.Workload, a.Trace, b.Workload, b.Trace)
		return 1
	}
	if a.Meta.NumCPU != b.Meta.NumCPU || a.Meta.GOMAXPROCS != b.Meta.GOMAXPROCS {
		fmt.Printf("WARNING: core counts differ (nproc %d/GOMAXPROCS %d vs %d/%d): timings are not comparable\n",
			a.Meta.NumCPU, a.Meta.GOMAXPROCS, b.Meta.NumCPU, b.Meta.GOMAXPROCS)
	}
	fmt.Printf("%s trace=%d: %s (seed %d) -> %s (seed %d)\n", a.Workload, a.Trace, a.Meta.Commit, a.Seed, b.Meta.Commit, b.Seed)
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		av, _ := a.Result.Metrics[n]["value"].(float64)
		bm, ok := b.Result.Metrics[n]
		if !ok {
			fmt.Printf("  %-34s %12.4f  (missing in new)\n", n, av)
			continue
		}
		bv, _ := bm["value"].(float64)
		change := "n/a"
		if av != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(bv-av)/av)
		}
		fmt.Printf("  %-34s %12.4f -> %12.4f  %s\n", n, av, bv, change)
	}
	return 0
}
