package par

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// SweepStats summarizes the execution of one parallel sweep: how the
// dispatched chunks spread across workers and how unbalanced their
// runtime was.
type SweepStats struct {
	// Items is the sweep's index-space size.
	Items int
	// Chunks is how many chunks actually executed (less than
	// NumChunks(Items) when the sweep was canceled).
	Chunks int
	// Workers is the goroutine count the sweep ran on (caller plus
	// acquired helpers).
	Workers int
	// Busy is chunk execution time summed over all workers.
	Busy time.Duration
	// MaxChunk and MeanChunk bound the per-chunk time distribution —
	// a MaxChunk far above MeanChunk is the straggler signature.
	MaxChunk  time.Duration
	MeanChunk time.Duration
	// Imbalance is max worker busy time over mean worker busy time:
	// 1.0 is perfect balance, Workers is one worker doing everything.
	// Always 1 for single-worker sweeps.
	Imbalance float64
}

// workerClock is one worker's per-sweep timing accumulator.
type workerClock struct {
	busy     int64
	maxChunk int64
	chunks   int64
}

// Process-wide sweep counters, surfaced as chatvis_par_* metrics.
var (
	statSweeps    atomic.Int64
	statChunks    atomic.Int64
	statBusyNs    atomic.Int64
	statParSweeps atomic.Int64
	statImbMilli  atomic.Int64 // sum of imbalance*1000 over parallel sweeps
)

// Stats is the process-wide sweep telemetry snapshot.
type Stats struct {
	// Sweeps counts every sweep (serial ones included); Chunks counts
	// chunks dispatched across them; Busy sums chunk execution time
	// over all workers.
	Sweeps int64
	Chunks int64
	Busy   time.Duration
	// ParallelSweeps counts sweeps that ran on two or more workers;
	// AvgImbalance is the mean per-sweep imbalance ratio over exactly
	// those sweeps (0 when none ran).
	ParallelSweeps int64
	AvgImbalance   float64
}

// Snapshot returns the process-wide sweep counters.
func Snapshot() Stats {
	s := Stats{
		Sweeps:         statSweeps.Load(),
		Chunks:         statChunks.Load(),
		Busy:           time.Duration(statBusyNs.Load()),
		ParallelSweeps: statParSweeps.Load(),
	}
	if s.ParallelSweeps > 0 {
		s.AvgImbalance = float64(statImbMilli.Load()) / 1000 / float64(s.ParallelSweeps)
	}
	return s
}

type sweepObsKey struct{}

// WithSweepObserver attaches fn to the context: every sweep that runs
// under it reports its SweepStats after completing (or being
// canceled). fn may be called from any sweep's calling goroutine —
// concurrently, when independent sweeps share the context — so it must
// be safe for concurrent use; SweepAgg is the ready-made aggregator.
func WithSweepObserver(ctx context.Context, fn func(SweepStats)) context.Context {
	return context.WithValue(ctx, sweepObsKey{}, fn)
}

func sweepObserver(ctx context.Context) func(SweepStats) {
	fn, _ := ctx.Value(sweepObsKey{}).(func(SweepStats))
	return fn
}

// recordSweep folds one sweep's worker clocks into its SweepStats,
// updates the process-wide counters and notifies any ctx observer.
func recordSweep(ctx context.Context, items int, clocks []workerClock) {
	var totBusy, maxBusy, maxChunk, chunks int64
	for i := range clocks {
		c := &clocks[i]
		totBusy += c.busy
		chunks += c.chunks
		if c.busy > maxBusy {
			maxBusy = c.busy
		}
		if c.maxChunk > maxChunk {
			maxChunk = c.maxChunk
		}
	}
	s := SweepStats{
		Items:     items,
		Chunks:    int(chunks),
		Workers:   len(clocks),
		Busy:      time.Duration(totBusy),
		MaxChunk:  time.Duration(maxChunk),
		Imbalance: 1,
	}
	if chunks > 0 {
		s.MeanChunk = time.Duration(totBusy / chunks)
	}
	if len(clocks) > 1 && totBusy > 0 {
		s.Imbalance = float64(maxBusy) * float64(len(clocks)) / float64(totBusy)
	}
	statSweeps.Add(1)
	statChunks.Add(chunks)
	statBusyNs.Add(totBusy)
	if len(clocks) > 1 {
		statParSweeps.Add(1)
		statImbMilli.Add(int64(s.Imbalance*1000 + 0.5))
	}
	if obs := sweepObserver(ctx); obs != nil {
		obs(s)
	}
}

// SweepAgg aggregates the stats of every sweep under one request or
// span. Install its Observe method with WithSweepObserver, read the
// result with Summary. Safe for concurrent sweeps.
type SweepAgg struct {
	mu       sync.Mutex
	sweeps   int
	chunks   int
	busy     time.Duration
	maxChunk time.Duration
	maxImb   float64
}

// Observe folds one sweep's stats in; pass it to WithSweepObserver.
func (g *SweepAgg) Observe(s SweepStats) {
	g.mu.Lock()
	g.sweeps++
	g.chunks += s.Chunks
	g.busy += s.Busy
	if s.MaxChunk > g.maxChunk {
		g.maxChunk = s.MaxChunk
	}
	if s.Imbalance > g.maxImb {
		g.maxImb = s.Imbalance
	}
	g.mu.Unlock()
}

// SweepSummary is the aggregate of every sweep a SweepAgg observed.
type SweepSummary struct {
	Sweeps, Chunks int
	Busy, MaxChunk time.Duration
	// MaxImbalance is the worst per-sweep imbalance ratio observed
	// (1.0 when every sweep was balanced or single-worker).
	MaxImbalance float64
}

// Summary snapshots the aggregate.
func (g *SweepAgg) Summary() SweepSummary {
	g.mu.Lock()
	defer g.mu.Unlock()
	return SweepSummary{
		Sweeps: g.sweeps, Chunks: g.chunks,
		Busy: g.busy, MaxChunk: g.maxChunk,
		MaxImbalance: g.maxImb,
	}
}
