package llm

import (
	"context"
	"errors"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"
)

// --- WithRetry ---------------------------------------------------------------

// WithRetry retries failed completions up to attempts times, sleeping
// backoff between tries (doubling each time). The context is honoured
// both between attempts and by the underlying client. The returned
// Response.Attempts reports how many tries the call consumed.
func WithRetry(attempts int, backoff time.Duration) Middleware {
	if attempts < 1 {
		attempts = 1
	}
	return func(next Client) Client {
		return &retryClient{next: next, attempts: attempts, backoff: backoff}
	}
}

type retryClient struct {
	next     Client
	attempts int
	backoff  time.Duration
}

func (c *retryClient) Name() string { return c.next.Name() }

func (c *retryClient) Complete(ctx context.Context, req Request) (Response, error) {
	var lastErr error
	delay := c.backoff
	for try := 1; try <= c.attempts; try++ {
		resp, err := c.next.Complete(ctx, req)
		if err == nil {
			resp.Attempts = try
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return Response{}, ctx.Err()
		}
		if try == c.attempts {
			break
		}
		if delay > 0 {
			timer := time.NewTimer(delay)
			select {
			case <-ctx.Done():
				timer.Stop()
				return Response{}, ctx.Err()
			case <-timer.C:
			}
			delay *= 2
		}
	}
	return Response{}, lastErr
}

// --- WithCache ---------------------------------------------------------------

// WithCache memoizes completions keyed on a hash of (model, system,
// user). The cache is safe for concurrent use and deduplicates in-flight
// requests: two goroutines asking for the same completion at once share a
// single underlying call. Cached responses are returned with CacheHit set
// and the (near-zero) lookup latency.
func WithCache() Middleware {
	return func(next Client) Client {
		return &cacheClient{next: next, entries: map[uint64]*cacheEntry{}}
	}
}

type cacheClient struct {
	next    Client
	mu      sync.Mutex
	entries map[uint64]*cacheEntry
}

type cacheEntry struct {
	once sync.Once
	resp Response
	err  error
}

func requestKey(model string, req Request) uint64 {
	h := fnv.New64a()
	h.Write([]byte(model))
	h.Write([]byte{0})
	h.Write([]byte(req.System))
	h.Write([]byte{0})
	h.Write([]byte(req.User))
	return h.Sum64()
}

func (c *cacheClient) Name() string { return c.next.Name() }

func (c *cacheClient) Complete(ctx context.Context, req Request) (Response, error) {
	start := time.Now()
	key := requestKey(c.next.Name(), req)
	for {
		c.mu.Lock()
		e, hit := c.entries[key]
		if !hit {
			e = &cacheEntry{}
			c.entries[key] = e
		}
		c.mu.Unlock()

		e.once.Do(func() {
			e.resp, e.err = c.next.Complete(ctx, req)
			if e.err != nil {
				// Do not cache failures: evict so a later call can retry.
				c.mu.Lock()
				delete(c.entries, key)
				c.mu.Unlock()
			}
		})
		if e.err == nil {
			resp := e.resp
			if hit {
				resp.CacheHit = true
				resp.Latency = time.Since(start)
			}
			return resp, nil
		}
		if ctx.Err() != nil {
			return Response{}, ctx.Err()
		}
		// The shared call ran under another caller's context; if it died
		// of that caller's cancellation while ours is still live, retry
		// on a fresh entry with our own context.
		if errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded) {
			continue
		}
		return Response{}, e.err
	}
}

// --- WithMetrics -------------------------------------------------------------

// Metrics accumulates per-client counters across calls. All fields are
// updated atomically; read a consistent view with Snapshot.
type Metrics struct {
	calls            atomic.Int64
	errors           atomic.Int64
	cacheHits        atomic.Int64
	latencyNanos     atomic.Int64
	promptTokens     atomic.Int64
	completionTokens atomic.Int64
}

// MetricsSnapshot is a point-in-time copy of a Metrics.
type MetricsSnapshot struct {
	Calls            int64
	Errors           int64
	CacheHits        int64
	TotalLatency     time.Duration
	PromptTokens     int64
	CompletionTokens int64
}

// Snapshot returns the current counter values.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Calls:            m.calls.Load(),
		Errors:           m.errors.Load(),
		CacheHits:        m.cacheHits.Load(),
		TotalLatency:     time.Duration(m.latencyNanos.Load()),
		PromptTokens:     m.promptTokens.Load(),
		CompletionTokens: m.completionTokens.Load(),
	}
}

// WithMetrics records every call into m: counts, errors, cache hits,
// cumulative latency and token usage.
func WithMetrics(m *Metrics) Middleware {
	return func(next Client) Client {
		return &metricsClient{next: next, m: m}
	}
}

type metricsClient struct {
	next Client
	m    *Metrics
}

func (c *metricsClient) Name() string { return c.next.Name() }

func (c *metricsClient) Complete(ctx context.Context, req Request) (Response, error) {
	start := time.Now()
	resp, err := c.next.Complete(ctx, req)
	c.m.calls.Add(1)
	c.m.latencyNanos.Add(int64(time.Since(start)))
	if err != nil {
		c.m.errors.Add(1)
		return resp, err
	}
	if resp.CacheHit {
		// Cache hits consumed no model tokens: count the hit, not the
		// original call's usage again.
		c.m.cacheHits.Add(1)
		return resp, nil
	}
	c.m.promptTokens.Add(int64(resp.Usage.PromptTokens))
	c.m.completionTokens.Add(int64(resp.Usage.CompletionTokens))
	return resp, nil
}
