package llm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingClient returns a canned response and counts how many calls
// actually reach it — the probe behind the cache/retry tests.
type countingClient struct {
	calls   atomic.Int64
	failFor int64 // first failFor calls error out
	delay   time.Duration
}

func (c *countingClient) Name() string { return "counting" }

func (c *countingClient) Complete(ctx context.Context, req Request) (Response, error) {
	n := c.calls.Add(1)
	if c.delay > 0 {
		select {
		case <-time.After(c.delay):
		case <-ctx.Done():
			return Response{}, ctx.Err()
		}
	}
	if n <= c.failFor {
		return Response{}, errors.New("transient failure")
	}
	start := time.Now()
	return NewResponse("counting", req, "response to "+req.User, start), nil
}

func TestWithCacheServesRepeatsWithoutRecomputing(t *testing.T) {
	base := &countingClient{}
	c := Chain(base, WithCache())
	ctx := context.Background()
	req := Request{System: "sys", User: "u1"}

	first, err := c.Complete(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first call must not be a cache hit")
	}
	second, err := c.Complete(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("second identical call should hit the cache")
	}
	if second.Text != first.Text {
		t.Errorf("cached text %q != original %q", second.Text, first.Text)
	}
	if base.calls.Load() != 1 {
		t.Errorf("underlying client called %d times, want 1", base.calls.Load())
	}
	// A different request misses.
	third, err := c.Complete(ctx, Request{System: "sys", User: "u2"})
	if err != nil {
		t.Fatal(err)
	}
	if third.CacheHit {
		t.Error("distinct request should miss")
	}
	if base.calls.Load() != 2 {
		t.Errorf("underlying client called %d times, want 2", base.calls.Load())
	}
}

func TestWithCacheConcurrentAccess(t *testing.T) {
	base := &countingClient{delay: time.Millisecond}
	c := Chain(base, WithCache())
	ctx := context.Background()

	const goroutines = 32
	const distinct = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := Request{System: "sys", User: fmt.Sprintf("u%d", i%distinct)}
			resp, err := c.Complete(ctx, req)
			if err != nil {
				errs <- err
				return
			}
			if want := "response to " + req.User; resp.Text != want {
				errs <- fmt.Errorf("got %q want %q", resp.Text, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// In-flight dedup: each distinct request reaches the model exactly once
	// even when all 32 goroutines race on a cold cache.
	if got := base.calls.Load(); got != distinct {
		t.Errorf("underlying calls = %d, want %d (single-flight per key)", got, distinct)
	}
}

func TestWithCacheDoesNotCacheErrors(t *testing.T) {
	base := &countingClient{failFor: 1}
	c := Chain(base, WithCache())
	ctx := context.Background()
	req := Request{User: "u"}
	if _, err := c.Complete(ctx, req); err == nil {
		t.Fatal("first call should fail")
	}
	resp, err := c.Complete(ctx, req)
	if err != nil {
		t.Fatalf("second call should retry past the evicted failure: %v", err)
	}
	if resp.CacheHit {
		t.Error("response after an evicted failure is not a hit")
	}
}

func TestWithRetryRecoversAndCountsAttempts(t *testing.T) {
	base := &countingClient{failFor: 2}
	c := Chain(base, WithRetry(3, 0))
	resp, err := c.Complete(context.Background(), Request{User: "u"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", resp.Attempts)
	}
	// Exhausted budget surfaces the last error.
	base2 := &countingClient{failFor: 10}
	c2 := Chain(base2, WithRetry(2, 0))
	if _, err := c2.Complete(context.Background(), Request{User: "u"}); err == nil {
		t.Error("exhausted retries should return the error")
	}
	if base2.calls.Load() != 2 {
		t.Errorf("underlying calls = %d, want 2", base2.calls.Load())
	}
}

func TestWithRetryStopsOnCancelledContext(t *testing.T) {
	base := &countingClient{failFor: 100}
	c := Chain(base, WithRetry(50, time.Hour))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Complete(ctx, Request{User: "u"})
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry loop ignored cancellation")
	}
}

func TestWithMetricsAccumulates(t *testing.T) {
	var m Metrics
	base := &countingClient{failFor: 1}
	c := Chain(base, WithMetrics(&m), WithCache())
	ctx := context.Background()

	if _, err := c.Complete(ctx, Request{User: "u"}); err == nil {
		t.Fatal("first call should fail")
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Complete(ctx, Request{User: "u"}); err != nil {
			t.Fatal(err)
		}
	}
	s := m.Snapshot()
	if s.Calls != 4 {
		t.Errorf("calls = %d, want 4", s.Calls)
	}
	if s.Errors != 1 {
		t.Errorf("errors = %d, want 1", s.Errors)
	}
	if s.CacheHits != 2 {
		t.Errorf("cache hits = %d, want 2", s.CacheHits)
	}
	if s.CompletionTokens == 0 || s.PromptTokens == 0 {
		t.Errorf("token usage not accumulated: %+v", s)
	}
}

func TestChainOrderOutermostFirst(t *testing.T) {
	var order []string
	mw := func(tag string) Middleware {
		return func(next Client) Client {
			return &ClientFunc{
				ModelName: next.Name(),
				Fn: func(ctx context.Context, req Request) (Response, error) {
					order = append(order, tag)
					return next.Complete(ctx, req)
				},
			}
		}
	}
	base := &ClientFunc{ModelName: "base", Fn: func(ctx context.Context, req Request) (Response, error) {
		return Response{Text: "ok"}, nil
	}}
	c := Chain(base, mw("outer"), mw("inner"))
	if _, err := c.Complete(context.Background(), Request{}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Errorf("order = %v", order)
	}
}

func TestEstimateTokens(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"", 0},
		{"abc", 1},
		{"abcd", 1},
		{"abcde", 2},
		{"12345678", 2},
	}
	for _, tc := range cases {
		if got := EstimateTokens(tc.in); got != tc.want {
			t.Errorf("EstimateTokens(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
	u := Usage{PromptTokens: 2, CompletionTokens: 3, PromptChars: 8, CompletionChars: 12}
	sum := u.Add(u)
	if sum.TotalTokens() != 10 || sum.PromptChars != 16 || sum.CompletionChars != 24 {
		t.Errorf("Usage.Add = %+v", sum)
	}
}
