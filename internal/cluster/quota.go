package cluster

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// QuotaConfig bounds one tenant's front-door traffic. Zero values
// disable the corresponding limit.
type QuotaConfig struct {
	// RPS is the token-bucket refill rate (submissions per second).
	RPS float64
	// Burst is the bucket depth (default: ceil(RPS), at least 1).
	Burst int
	// MaxInflight caps a tenant's accepted-but-unfinished work.
	MaxInflight int
}

// enabled reports whether any limit is active.
func (c QuotaConfig) enabled() bool { return c.RPS > 0 || c.MaxInflight > 0 }

// tenantBucket is one tenant's token bucket + inflight count.
type tenantBucket struct {
	tokens   float64
	last     time.Time
	inflight int
}

// Quotas enforces per-tenant rate limits and inflight caps at the
// front door, before any work is enqueued. All tenants share one
// QuotaConfig; the accounting is per tenant key.
type Quotas struct {
	cfg QuotaConfig

	mu      sync.Mutex
	tenants map[string]*tenantBucket

	throttled atomic.Int64
	now       func() time.Time // test hook
}

// NewQuotas builds a quota table; nil config values disable limits
// (Admit always succeeds, cheaply).
func NewQuotas(cfg QuotaConfig) *Quotas {
	if cfg.RPS > 0 && cfg.Burst < 1 {
		cfg.Burst = int(math.Ceil(cfg.RPS))
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	return &Quotas{cfg: cfg, tenants: map[string]*tenantBucket{}, now: time.Now}
}

// Enabled reports whether any limit is configured.
func (q *Quotas) Enabled() bool { return q != nil && q.cfg.enabled() }

// Throttled counts rejected admissions since process start.
func (q *Quotas) Throttled() int64 { return q.throttled.Load() }

// Admit charges one submission against the tenant. On success it
// returns a release callback that MUST be called exactly once when the
// admitted work finishes (it frees the inflight slot; calling it more
// than once is safe). On rejection ok is false and retryAfter is how
// long the tenant should wait before retrying.
func (q *Quotas) Admit(tenant string) (release func(), retryAfter time.Duration, ok bool) {
	if !q.Enabled() {
		return func() {}, 0, true
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.tenants[tenant]
	if b == nil {
		b = &tenantBucket{tokens: float64(q.cfg.Burst), last: q.now()}
		q.tenants[tenant] = b
	}
	if q.cfg.RPS > 0 {
		now := q.now()
		b.tokens = math.Min(float64(q.cfg.Burst), b.tokens+now.Sub(b.last).Seconds()*q.cfg.RPS)
		b.last = now
		if b.tokens < 1 {
			q.throttled.Add(1)
			wait := time.Duration((1 - b.tokens) / q.cfg.RPS * float64(time.Second))
			return nil, wait, false
		}
	}
	if q.cfg.MaxInflight > 0 && b.inflight >= q.cfg.MaxInflight {
		q.throttled.Add(1)
		return nil, time.Second, false
	}
	if q.cfg.RPS > 0 {
		b.tokens--
	}
	b.inflight++
	var once sync.Once
	return func() {
		once.Do(func() {
			q.mu.Lock()
			defer q.mu.Unlock()
			if bb := q.tenants[tenant]; bb != nil && bb.inflight > 0 {
				bb.inflight--
			}
		})
	}, 0, true
}
