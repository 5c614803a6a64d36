// Package par is the parallel compute substrate shared by the filters,
// the renderer and the pipeline engine: a bounded worker pool plus
// deterministic chunked map/reduce helpers.
//
// Determinism contract: every helper in this package assigns work by
// index and collects results by index, so the *values* produced are
// independent of the worker count, the chunk boundaries (see
// sweepRanges) and scheduling order. Callers that merge chunk results
// in index order therefore produce byte-identical output for any worker
// count — the property the serial/parallel equivalence tests in filters
// and render pin down. OrderedSweep extends the same contract to
// pipelined merges: the consumer still sees builders in index order
// even though chunks complete out of order.
//
// Concurrency model: each call runs chunks on the calling goroutine plus
// up to Parallelism()-1 helper goroutines drawn from a process-wide
// token pool. Workers() (the configured count) shapes the chunk
// boundaries; Parallelism() clamps actual goroutine fan-out to
// runtime.GOMAXPROCS(0), so asking for 8 workers on a 1-core box keeps
// 8-worker chunk boundaries (and thus 8-worker-identical output) while
// running on one goroutine instead of oversubscribing. Helpers are
// acquired opportunistically (never blocking), so nested parallel
// sections — a parallel filter inside a parallel render inside a
// chatvisd job — cannot deadlock and total compute goroutines stay
// bounded near the machine's parallelism.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// defaultWorkers holds the configured worker count; 0 means "follow
// runtime.GOMAXPROCS(0)".
var defaultWorkers atomic.Int64

// helperTokens bounds the number of helper goroutines alive across all
// concurrent par calls in the process. It is sized lazily from the
// machine parallelism.
var (
	tokenMu      sync.Mutex
	helperTokens chan struct{}
	tokenCap     int
)

// Workers returns the configured worker count: the value set with
// SetWorkers, or runtime.GOMAXPROCS(0) when unset. This count shapes
// chunk boundaries (determinism is keyed on it); the goroutine fan-out
// is separately clamped by Parallelism.
func Workers() int {
	if n := int(defaultWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Parallelism returns how many goroutines a sweep may actually run on:
// Workers() clamped to runtime.GOMAXPROCS(0). Requesting more workers
// than the machine has cores changes chunk shaping but never
// oversubscribes the scheduler.
func Parallelism() int {
	w := Workers()
	if p := runtime.GOMAXPROCS(0); w > p {
		return p
	}
	return w
}

// SetWorkers fixes the process-wide worker count (the chatvisd
// -compute-workers flag lands here). n <= 0 restores the default of
// runtime.GOMAXPROCS(0).
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// acquireHelpers grabs up to want helper tokens without blocking and
// returns how many it got plus a release function.
func acquireHelpers(want int) (int, func()) {
	if want <= 0 {
		return 0, func() {}
	}
	tokenMu.Lock()
	need := Parallelism() - 1
	if need < 0 {
		need = 0
	}
	if helperTokens == nil || tokenCap < need {
		// Grow the pool to the current parallelism. Outstanding tokens
		// from the old channel release into the old channel (captured by
		// their release closures), so growth never corrupts accounting.
		if need < 1 {
			need = 1
		}
		helperTokens = make(chan struct{}, need)
		for i := 0; i < need; i++ {
			helperTokens <- struct{}{}
		}
		tokenCap = need
	}
	tokens := helperTokens
	tokenMu.Unlock()

	got := 0
	for got < want {
		select {
		case <-tokens:
			got++
		default:
			return got, releaseFn(tokens, got)
		}
	}
	return got, releaseFn(tokens, got)
}

func releaseFn(tokens chan struct{}, n int) func() {
	return func() {
		for i := 0; i < n; i++ {
			tokens <- struct{}{}
		}
	}
}

// runRanges executes process(worker, chunk, spans[chunk]) for every
// chunk across the caller (worker 0) plus opportunistically-acquired
// helpers (workers 1..n), dispatching chunks through an atomic counter
// so idle workers backfill stragglers. Worker IDs let callers keep
// worker-affine state (Arena slots). items is the sweep's index-space
// size, reported in telemetry. It returns ctx.Err() if the context was
// canceled before every chunk was claimed; chunks already started
// always finish (callers rely on partial results never being observed —
// the error return is the only signal).
func runRanges(ctx context.Context, items int, spans []Range, process func(worker, chunk int, r Range)) error {
	nc := len(spans)
	if nc == 0 {
		return nil // an empty sweep is trivially complete
	}
	nHelpers := 0
	release := func() {}
	if want := min(nc-1, Parallelism()-1); want > 0 {
		nHelpers, release = acquireHelpers(want)
	}
	defer release()

	clocks := make([]workerClock, nHelpers+1)
	var next atomic.Int64
	canceled := ctx.Done()
	loop := func(w int) {
		wc := &clocks[w]
		for {
			if canceled != nil {
				select {
				case <-canceled:
					return
				default:
				}
			}
			c := int(next.Add(1)) - 1
			if c >= nc {
				return
			}
			t0 := time.Now()
			process(w, c, spans[c])
			d := time.Since(t0).Nanoseconds()
			wc.busy += d
			wc.chunks++
			if d > wc.maxChunk {
				wc.maxChunk = d
			}
		}
	}
	var wg sync.WaitGroup
	for i := 1; i <= nHelpers; i++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			loop(w)
		}(i)
	}
	loop(0)
	wg.Wait()

	recordSweep(ctx, items, clocks)

	if int(next.Load()) < nc {
		// Cancellation stopped the sweep before every chunk was claimed.
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	// Every chunk was claimed, and a claimed chunk always runs to
	// completion — the sweep finished, even if ctx was canceled after
	// the last claim. Completed work is never reported as failed.
	return nil
}

// NumChunks is the chunk count of a sweep over n items: enough to
// balance load across workers (4 chunks per worker) without
// degenerating into per-item scheduling.
func NumChunks(n int) int {
	if n <= 0 {
		return 0
	}
	c := Workers() * 4
	if c > n {
		c = n
	}
	if c < 1 {
		c = 1
	}
	return c
}

// chunkRange returns the half-open item range of chunk c when n items
// are split into chunks nearly-equal contiguous ranges.
func chunkRange(c, chunks, n int) (start, end int) {
	q, r := n/chunks, n%chunks
	start = c*q + min(c, r)
	end = start + q
	if c < r {
		end++
	}
	return start, end
}

// Range is one contiguous half-open chunk [Start, End) of a sweep.
type Range struct{ Start, End int }

// sweepRanges cuts [0, n) into NumChunks(n) near-equal contiguous
// ranges. It is a pure function of (n, Workers()) — the same inputs
// always produce the same boundaries, so a sweep's chunking is
// deterministic even though its scheduling order is not.
func sweepRanges(n int) []Range {
	nc := NumChunks(n)
	spans := make([]Range, nc)
	for c := range spans {
		s, e := chunkRange(c, nc, n)
		spans[c] = Range{s, e}
	}
	return spans
}

// For runs fn over every contiguous sub-range of [0, n) in parallel,
// chunked by sweepRanges. fn(start, end) must only touch state owned by
// its range (or its own locals); ranges are disjoint and cover [0, n)
// exactly once. Returns ctx.Err() if canceled early.
func For(ctx context.Context, n int, fn func(start, end int)) error {
	return runRanges(ctx, n, sweepRanges(n), func(_, _ int, r Range) {
		fn(r.Start, r.End)
	})
}

// MapN computes out[i] = fn(i) for every i in [0, n), scheduling
// contiguous index chunks across workers. Results are positionally
// deterministic.
func MapN[T any](ctx context.Context, n int, fn func(i int) T) ([]T, error) {
	out := make([]T, n)
	err := For(ctx, n, func(start, end int) {
		for i := start; i < end; i++ {
			out[i] = fn(i)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
