package par

import (
	"context"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

// withGOMAXPROCS raises the runtime parallelism so helper goroutines
// genuinely interleave even on a single-core runner.
func withGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// rangesPartition asserts spans tile [0, n) exactly: contiguous,
// non-empty, in order.
func rangesPartition(t *testing.T, n int, spans []Range) {
	t.Helper()
	prev := 0
	for i, r := range spans {
		if r.Start != prev {
			t.Fatalf("chunk %d starts at %d, want %d (spans %v)", i, r.Start, prev, spans)
		}
		if r.End <= r.Start {
			t.Fatalf("chunk %d empty range [%d,%d)", i, r.Start, r.End)
		}
		prev = r.End
	}
	if prev != n {
		t.Fatalf("spans cover [0,%d), want [0,%d)", prev, n)
	}
}

// TestSweepRangesPartition pins the static split: NumChunks(n)
// contiguous ranges tiling [0, n) whose sizes differ by at most one.
func TestSweepRangesPartition(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8} {
		for _, n := range []int{1, 2, 7, 100, 4096, 100_000} {
			withWorkers(t, w)
			spans := sweepRanges(n)
			rangesPartition(t, n, spans)
			if len(spans) != NumChunks(n) {
				t.Fatalf("workers=%d n=%d: %d chunks, want NumChunks = %d", w, n, len(spans), NumChunks(n))
			}
			small, large := n, 0
			for _, r := range spans {
				small, large = min(small, r.End-r.Start), max(large, r.End-r.Start)
			}
			if large-small > 1 {
				t.Fatalf("workers=%d n=%d: chunk sizes range %d..%d, want near-equal", w, n, small, large)
			}
		}
	}
}

func TestSweepRangesDeterministic(t *testing.T) {
	withWorkers(t, 8)
	a := sweepRanges(10_000)
	b := sweepRanges(10_000)
	if len(a) != len(b) {
		t.Fatalf("chunk counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chunk %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestParallelismClampsToGOMAXPROCS(t *testing.T) {
	withWorkers(t, 64)
	if p, max := Parallelism(), runtime.GOMAXPROCS(0); p > max {
		t.Fatalf("Parallelism() = %d exceeds GOMAXPROCS %d", p, max)
	}
	if Workers() != 64 {
		t.Fatalf("Workers() = %d; the configured count must survive the clamp", Workers())
	}
	withWorkers(t, 1)
	if Parallelism() != 1 {
		t.Fatalf("Parallelism() = %d with one worker", Parallelism())
	}
}

// TestConveyorOutOfOrderAdversarial drives the conveyor directly with
// completions in reverse and shuffled order — the worst cases a real
// sweep can produce — and asserts deliveries are strictly in index
// order with exactly one consumer at a time.
func TestConveyorOutOfOrderAdversarial(t *testing.T) {
	const n = 64
	orders := [][]int{make([]int, n), make([]int, n)}
	for i := range orders[0] {
		orders[0][i] = n - 1 - i // strict reverse
	}
	perm := rand.New(rand.NewSource(7)).Perm(n)
	copy(orders[1], perm)
	for oi, order := range orders {
		cv := newConveyor[int](n)
		var delivered []int
		var inConsumer atomic.Int32
		deliver := func(v int) {
			if inConsumer.Add(1) != 1 {
				t.Error("concurrent delivery — conveyor allowed two consumers")
			}
			delivered = append(delivered, v)
			inConsumer.Add(-1)
		}
		for _, c := range order {
			cv.put(c, c, deliver)
		}
		if len(delivered) != n {
			t.Fatalf("order %d: delivered %d of %d items", oi, len(delivered), n)
		}
		for i, v := range delivered {
			if v != i {
				t.Fatalf("order %d: delivery %d was chunk %d — not index order", oi, i, v)
			}
		}
	}
}

// TestConveyorConcurrentPuts hammers the conveyor from many goroutines
// (with GOMAXPROCS raised so they truly interleave) and checks the
// single-consumer, in-order guarantee under real contention. Run under
// -race this also proves deliver needs no locking of its own.
func TestConveyorConcurrentPuts(t *testing.T) {
	withGOMAXPROCS(t, 8)
	const n = 512
	cv := newConveyor[int](n)
	var delivered []int
	var inConsumer atomic.Int32
	deliver := func(v int) {
		if inConsumer.Add(1) != 1 {
			t.Error("concurrent delivery")
		}
		delivered = append(delivered, v)
		inConsumer.Add(-1)
	}
	done := make(chan struct{})
	perm := rand.New(rand.NewSource(11)).Perm(n)
	const gors = 8
	for g := 0; g < gors; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := g; i < n; i += gors {
				cv.put(perm[i], perm[i], deliver)
			}
		}(g)
	}
	for g := 0; g < gors; g++ {
		<-done
	}
	if len(delivered) != n {
		t.Fatalf("delivered %d of %d", len(delivered), n)
	}
	for i, v := range delivered {
		if v != i {
			t.Fatalf("delivery %d was chunk %d", i, v)
		}
	}
}

func TestConveyorDrainRecyclesStranded(t *testing.T) {
	cv := newConveyor[int](4)
	deliver := func(int) { t.Fatal("nothing should deliver: chunk 0 never completed") }
	cv.put(2, 2, deliver)
	cv.put(3, 3, deliver)
	var drained []int
	cv.drain(func(v int) { drained = append(drained, v) })
	if len(drained) != 2 || drained[0] != 2 || drained[1] != 3 {
		t.Fatalf("drained %v, want [2 3]", drained)
	}
	// drain is idempotent: stranded slots were cleared.
	cv.drain(func(v int) { t.Fatalf("re-drained %d", v) })
}

// sumBuilder is a minimal Resetter for OrderedSweep tests.
type sumBuilder struct {
	vals []int
}

func (b *sumBuilder) Reset() { b.vals = b.vals[:0] }

func TestOrderedSweepConsumesInIndexOrder(t *testing.T) {
	withGOMAXPROCS(t, 8)
	for _, w := range []int{1, 2, 4, 8} {
		withWorkers(t, w)
		a := NewArena(func() *sumBuilder { return &sumBuilder{} })
		const n = 10_000
		var got []int
		err := OrderedSweep(context.Background(), n, a,
			func(b *sumBuilder, start, end int) {
				for i := start; i < end; i++ {
					b.vals = append(b.vals, i)
				}
			},
			func(b *sumBuilder) { got = append(got, b.vals...) })
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: consumed %d of %d items", w, len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: position %d holds %d — consumption not in index order", w, i, v)
			}
		}
	}
}

// TestOrderedSweepCancellationRecycles runs many canceled sweeps and
// asserts the arena keeps recycling builders: if cancellation leaked
// checked-out builders, every cycle would construct fresh ones.
func TestOrderedSweepCancellationRecycles(t *testing.T) {
	withGOMAXPROCS(t, 4)
	withWorkers(t, 4)
	var constructed atomic.Int64
	a := NewArena(func() *sumBuilder {
		constructed.Add(1)
		return &sumBuilder{}
	})
	const cycles = 50
	canceledSweeps := 0
	for i := 0; i < cycles; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		var consumed atomic.Int64
		err := OrderedSweep(ctx, 10_000, a,
			func(b *sumBuilder, start, end int) {
				if start > 0 {
					cancel() // cancel mid-sweep, after at least one chunk ran
				}
				for j := start; j < end; j++ {
					b.vals = append(b.vals, j)
				}
			},
			func(b *sumBuilder) { consumed.Add(int64(len(b.vals))) })
		cancel()
		if err != nil {
			canceledSweeps++
		}
	}
	if canceledSweeps == 0 {
		t.Fatal("no sweep observed the cancellation — the test exercised nothing")
	}
	// Steady state needs at most one builder per worker slot in flight at
	// once; allow generous slack but far below one-per-cycle leakage.
	if c := constructed.Load(); c > 3*int64(Workers()) {
		t.Fatalf("%d builders constructed over %d canceled sweeps — cancellation leaks builders from the arena", c, cycles)
	}
	// The arena must still work after cancellations.
	var got []int
	if err := OrderedSweep(context.Background(), 100, a,
		func(b *sumBuilder, start, end int) {
			for i := start; i < end; i++ {
				b.vals = append(b.vals, i)
			}
		},
		func(b *sumBuilder) { got = append(got, b.vals...) }); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("post-cancel sweep wrong at %d: %d", i, v)
		}
	}
}

func TestArenaSlotAffinityAndReset(t *testing.T) {
	a := NewArena(func() *sumBuilder { return &sumBuilder{} })
	b := a.GetSlot(3)
	b.vals = append(b.vals, 1, 2, 3) // contaminate
	a.PutSlot(3, b)
	// Same worker gets the same builder back, Reset.
	again := a.GetSlot(3)
	if again != b {
		t.Fatal("worker 3 did not get its own builder back from the affine slot")
	}
	if len(again.vals) != 0 {
		t.Fatalf("slot checkout skipped Reset: %v leaked through", again.vals)
	}
	a.PutSlot(3, again)
	// A different worker's slot is empty; it must not steal slot 3.
	other := a.GetSlot(4)
	if other == b {
		t.Fatal("worker 4 received worker 3's slotted builder")
	}
	// Negative worker IDs take the shared path and still work.
	shared := a.GetSlot(-1)
	if shared == nil {
		t.Fatal("shared-path GetSlot returned nil")
	}
	a.PutSlot(-1, shared)
	a.PutSlot(4, other)
	// Slot overflow: putting twice into one slot spills to the free list
	// rather than dropping the value.
	x, y := a.GetSlot(5), a.Get()
	a.PutSlot(5, x)
	a.PutSlot(5, y) // slot occupied -> shared free list
	gx, gy := a.GetSlot(5), a.Get()
	if gx != x {
		t.Fatal("slot 5 lost its affine value")
	}
	if gy != y {
		t.Fatal("overflow value did not reach the shared free list")
	}
}

func TestSweepObserverAndSnapshot(t *testing.T) {
	withWorkers(t, 4)
	before := Snapshot()
	var agg SweepAgg
	ctx := WithSweepObserver(context.Background(), agg.Observe)
	if err := For(ctx, 10_000, func(s, e int) {
		x := 0
		for i := s; i < e; i++ {
			x += i
		}
		_ = x
	}); err != nil {
		t.Fatal(err)
	}
	sum := agg.Summary()
	if sum.Sweeps != 1 {
		t.Fatalf("observer saw %d sweeps, want 1", sum.Sweeps)
	}
	if sum.Chunks < 1 {
		t.Fatalf("observer saw %d chunks", sum.Chunks)
	}
	after := Snapshot()
	if after.Sweeps <= before.Sweeps {
		t.Fatalf("global sweep counter did not advance: %d -> %d", before.Sweeps, after.Sweeps)
	}
	if after.Chunks < before.Chunks+int64(sum.Chunks) {
		t.Fatalf("global chunk counter advanced by %d, observer saw %d", after.Chunks-before.Chunks, sum.Chunks)
	}
}

// TestSweepAggConcurrent exercises the aggregator from concurrent
// sweeps sharing one context (the engine installs one observer per
// request span).
func TestSweepAggConcurrent(t *testing.T) {
	withGOMAXPROCS(t, 4)
	withWorkers(t, 4)
	var agg SweepAgg
	ctx := WithSweepObserver(context.Background(), agg.Observe)
	done := make(chan error)
	const sweeps = 8
	for i := 0; i < sweeps; i++ {
		go func() {
			done <- For(ctx, 1000, func(s, e int) {})
		}()
	}
	for i := 0; i < sweeps; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if sum := agg.Summary(); sum.Sweeps != sweeps {
		t.Fatalf("aggregated %d sweeps, want %d", sum.Sweeps, sweeps)
	}
}

// TestForEquivalentAcrossSchedules pins the package determinism
// contract at the For level: every worker count cuts a different chunk
// schedule, and all of them produce identical results.
func TestForEquivalentAcrossSchedules(t *testing.T) {
	withGOMAXPROCS(t, 8)
	const n = 4096
	ref := make([]int, n)
	for i := range ref {
		ref[i] = 3*i + 1
	}
	for _, w := range []int{1, 2, 4, 8} {
		withWorkers(t, w)
		out, err := MapN(context.Background(), n, func(i int) int { return 3*i + 1 })
		if err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if out[i] != ref[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, out[i], ref[i])
			}
		}
	}
}
