package par

import (
	"sync"
	"sync/atomic"
	"testing"
)

type testScratch struct {
	vals   []int
	resets int
}

func (s *testScratch) Reset() {
	s.vals = s.vals[:0]
	s.resets++
}

func TestArenaReusesValues(t *testing.T) {
	var built atomic.Int64
	a := NewArena(func() *testScratch {
		built.Add(1)
		return &testScratch{}
	})
	s := a.Get()
	s.vals = append(s.vals, 1, 2, 3)
	a.Put(s)
	s2 := a.Get()
	if s2 != s {
		t.Fatal("Get after Put should reuse the pooled value")
	}
	if len(s2.vals) != 0 {
		t.Fatalf("pooled value not Reset: %v", s2.vals)
	}
	if cap(s2.vals) < 3 {
		t.Fatal("Reset must retain capacity")
	}
	if built.Load() != 1 {
		t.Fatalf("constructor ran %d times, want 1", built.Load())
	}
}

func TestArenaConcurrent(t *testing.T) {
	a := NewArena(func() *testScratch { return &testScratch{} })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := a.Get()
				if len(s.vals) != 0 {
					t.Error("dirty scratch from Get")
					return
				}
				s.vals = append(s.vals, g)
				a.Put(s)
			}
		}(g)
	}
	wg.Wait()
}
