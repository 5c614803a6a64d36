package par

import "sync"

// Resetter is the contract for arena-pooled scratch: Reset must return
// the value to a clean state while retaining its allocated capacity.
// Every hot-path builder in filters and render implements it.
type Resetter interface{ Reset() }

// Arena is a typed free list of reusable scratch values. Get hands out
// a clean (Reset) value — recycled when one is available, freshly
// constructed otherwise — and Put returns it for reuse. The steady
// state of a sweep-per-request workload is therefore zero builder
// allocations: each request checks builders out, fills them, and
// returns them.
//
// In front of the shared free list sit worker-affine slots
// (GetSlot/PutSlot): each sweep worker prefers a single-value slot
// keyed by its worker ID, so the builder a worker just filled comes
// back to the same worker on the next chunk — warm caches, no
// cross-worker bouncing through the shared list.
//
// Values must not be used after Put. The arena itself is safe for
// concurrent Get/Put (chunks of one sweep and concurrent sweeps share
// it), but an individual value belongs to exactly one goroutine
// between Get and Put.
type Arena[S Resetter] struct {
	mu    sync.Mutex
	free  []S
	newFn func() S
	slots [arenaSlots]arenaSlot[S]
}

// arenaSlot is a one-value worker-affine cache in front of the shared
// free list. Its own mutex keeps slot traffic off the arena lock.
type arenaSlot[S Resetter] struct {
	mu     sync.Mutex
	val    S
	filled bool
}

// arenaMaxFree bounds how many idle values an arena retains, so a
// one-off burst (a wide sweep on a big machine) doesn't pin its peak
// scratch forever.
const arenaMaxFree = 64

// arenaSlots is the number of worker-affine slots per arena; worker IDs
// map onto slots modulo this, so wider sweeps than arenaSlots degrade
// to sharing slots, never to breaking.
const arenaSlots = 16

// NewArena returns an arena constructing values with newFn.
func NewArena[S Resetter](newFn func() S) *Arena[S] {
	return &Arena[S]{newFn: newFn}
}

// Get returns a clean scratch value, reusing a pooled one when
// possible. The value has been Reset before return.
func (a *Arena[S]) Get() S {
	a.mu.Lock()
	if n := len(a.free); n > 0 {
		s := a.free[n-1]
		var zero S
		a.free[n-1] = zero
		a.free = a.free[:n-1]
		a.mu.Unlock()
		s.Reset()
		return s
	}
	a.mu.Unlock()
	s := a.newFn()
	s.Reset()
	return s
}

// Put recycles a value for a future Get. The caller must not touch it
// afterwards.
func (a *Arena[S]) Put(s S) {
	a.mu.Lock()
	if len(a.free) < arenaMaxFree {
		a.free = append(a.free, s)
	}
	a.mu.Unlock()
}

// GetSlot returns a clean scratch value, preferring worker w's affine
// slot over the shared free list. w < 0 bypasses the slots (shared
// path). The value has been Reset before return.
func (a *Arena[S]) GetSlot(w int) S {
	if w < 0 {
		return a.Get()
	}
	slot := &a.slots[w%arenaSlots]
	slot.mu.Lock()
	if slot.filled {
		s := slot.val
		var zero S
		slot.val = zero
		slot.filled = false
		slot.mu.Unlock()
		s.Reset()
		return s
	}
	slot.mu.Unlock()
	return a.Get()
}

// PutSlot recycles a value into worker w's affine slot, overflowing to
// the shared free list when the slot is occupied. w < 0 bypasses the
// slots. The caller must not touch the value afterwards.
func (a *Arena[S]) PutSlot(w int, s S) {
	if w < 0 {
		a.Put(s)
		return
	}
	slot := &a.slots[w%arenaSlots]
	slot.mu.Lock()
	if !slot.filled {
		slot.val = s
		slot.filled = true
		slot.mu.Unlock()
		return
	}
	slot.mu.Unlock()
	a.Put(s)
}
