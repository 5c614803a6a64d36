package par

import (
	"context"
	"sync"
)

// conveyor orders out-of-order chunk completions for a single consumer:
// put records completions in any order, and whichever goroutine finds
// the conveyor unserved becomes the server, delivering every ready item
// from the index cursor onward. Exactly one goroutine serves at a time,
// so deliveries are strictly in index order and never concurrent.
type conveyor[T any] struct {
	mu      sync.Mutex
	items   []T
	done    []bool
	next    int
	serving bool
}

func newConveyor[T any](n int) *conveyor[T] {
	return &conveyor[T]{items: make([]T, n), done: make([]bool, n)}
}

// put records slot c as complete, then serves the cursor if nobody else
// is serving. The lock is released around each deliver call so other
// workers keep completing chunks while the consumer runs. No wakeup can
// be lost: a put that arrives while a server is active returns
// immediately, and the server re-checks the cursor under the lock after
// every delivery — the serving flag is only cleared in the same lock
// hold as the final (failed) cursor check.
func (cv *conveyor[T]) put(c int, v T, deliver func(T)) {
	cv.mu.Lock()
	cv.items[c] = v
	cv.done[c] = true
	if cv.serving {
		cv.mu.Unlock()
		return
	}
	cv.serving = true
	for cv.next < len(cv.done) && cv.done[cv.next] {
		item := cv.items[cv.next]
		var zero T
		cv.items[cv.next] = zero
		cv.next++
		cv.mu.Unlock()
		deliver(item)
		cv.mu.Lock()
	}
	cv.serving = false
	cv.mu.Unlock()
}

// drain hands every completed-but-undelivered item to fn in index
// order — the stranded completions of a canceled sweep. The caller must
// guarantee no put is in flight.
func (cv *conveyor[T]) drain(fn func(T)) {
	cv.mu.Lock()
	defer cv.mu.Unlock()
	for i := cv.next; i < len(cv.done); i++ {
		if cv.done[i] {
			fn(cv.items[i])
			var zero T
			cv.items[i] = zero
			cv.done[i] = false
		}
	}
}

// slotItem carries a chunk's builder plus the worker slot it came from,
// so the conveyor can recycle it worker-affine after consumption.
type slotItem[S any] struct {
	val   S
	owner int
}

// OrderedSweep runs one pipelined parallel sweep over [0, n): the range
// is chunked by sweepRanges, each chunk checks a builder out of the
// arena's worker-affine slots, fn fills it for its range, and consume
// receives the filled builders strictly in chunk index order *as they
// complete* — so the merge overlaps the tail of the sweep instead of
// waiting for a barrier. Scheduled by index, consumed by index: outputs
// inherit the package determinism contract.
//
// consume runs on exactly one goroutine at a time (not always the same
// one) and must not assume any particular worker; builders are recycled
// into the arena automatically after consume returns and must not be
// retained. On error (cancellation) consume may have seen only a prefix
// of the chunks and every unconsumed builder is recycled — per the
// substrate contract an error means the sweep's output is discarded.
func OrderedSweep[S Resetter](ctx context.Context, n int, a *Arena[S], fn func(s S, start, end int), consume func(S)) error {
	spans := sweepRanges(n)
	cv := newConveyor[slotItem[S]](len(spans))
	deliver := func(it slotItem[S]) {
		consume(it.val)
		a.PutSlot(it.owner, it.val)
	}
	err := runRanges(ctx, n, spans, func(w, c int, r Range) {
		s := a.GetSlot(w)
		fn(s, r.Start, r.End)
		cv.put(c, slotItem[S]{val: s, owner: w}, deliver)
	})
	if err != nil {
		// Recycle stranded builders without consuming them.
		cv.drain(func(it slotItem[S]) { a.PutSlot(it.owner, it.val) })
		return err
	}
	return nil
}
