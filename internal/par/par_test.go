package par

import (
	"context"
	"sync/atomic"
	"testing"
)

func withWorkers(t *testing.T, n int) {
	t.Helper()
	SetWorkers(n)
	t.Cleanup(func() { SetWorkers(0) })
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 4, 8} {
		withWorkers(t, w)
		const n = 1000
		hits := make([]int32, n)
		if err := For(context.Background(), n, func(s, e int) {
			for i := s; i < e; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		}); err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", w, i, h)
			}
		}
	}
}

func TestMapNPositional(t *testing.T) {
	withWorkers(t, 4)
	out, err := MapN(context.Background(), 257, func(i int) int { return i * i })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestForHonorsCancellation(t *testing.T) {
	withWorkers(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := For(ctx, 1_000_000, func(s, e int) {})
	if err == nil {
		t.Fatal("canceled context should surface an error")
	}
}

func TestChunkRangesPartition(t *testing.T) {
	for _, tc := range []struct{ n, chunks int }{{10, 3}, {7, 7}, {100, 16}, {1, 1}} {
		prev := 0
		for c := 0; c < tc.chunks; c++ {
			s, e := chunkRange(c, tc.chunks, tc.n)
			if s != prev {
				t.Fatalf("n=%d chunks=%d: chunk %d starts at %d, want %d", tc.n, tc.chunks, c, s, prev)
			}
			if e < s {
				t.Fatalf("n=%d chunks=%d: chunk %d empty range [%d,%d)", tc.n, tc.chunks, c, s, e)
			}
			prev = e
		}
		if prev != tc.n {
			t.Fatalf("n=%d chunks=%d: ranges cover %d items", tc.n, tc.chunks, prev)
		}
	}
}

func TestSetWorkers(t *testing.T) {
	SetWorkers(3)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d", Workers())
	}
	SetWorkers(0)
	if Workers() < 1 {
		t.Fatalf("default Workers() = %d", Workers())
	}
}

func TestNestedForDoesNotDeadlock(t *testing.T) {
	withWorkers(t, 4)
	err := For(context.Background(), 16, func(s, e int) {
		for i := s; i < e; i++ {
			if err := For(context.Background(), 64, func(s2, e2 int) {}); err != nil {
				t.Error(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
