package cluster

import (
	"testing"
	"time"
)

func TestQuotasTokenBucket(t *testing.T) {
	q := NewQuotas(QuotaConfig{RPS: 1, Burst: 2})
	now := time.Unix(1000, 0)
	q.now = func() time.Time { return now }

	rel1, _, ok := q.Admit("acme")
	if !ok {
		t.Fatal("first admit must pass (burst)")
	}
	rel2, _, ok := q.Admit("acme")
	if !ok {
		t.Fatal("second admit must pass (burst=2)")
	}
	_, retry, ok := q.Admit("acme")
	if ok {
		t.Fatal("third immediate admit must throttle")
	}
	if retry <= 0 || retry > time.Second {
		t.Errorf("retryAfter = %v, want (0, 1s]", retry)
	}
	if q.Throttled() != 1 {
		t.Errorf("throttled = %d, want 1", q.Throttled())
	}

	// Other tenants have their own bucket.
	if _, _, ok := q.Admit("globex"); !ok {
		t.Error("independent tenant must not be throttled")
	}

	// Refill after a second.
	now = now.Add(1100 * time.Millisecond)
	rel3, _, ok := q.Admit("acme")
	if !ok {
		t.Fatal("admit after refill must pass")
	}
	rel1()
	rel2()
	rel3()
}

func TestQuotasInflightCap(t *testing.T) {
	q := NewQuotas(QuotaConfig{MaxInflight: 2})
	rel1, _, ok := q.Admit("acme")
	if !ok {
		t.Fatal("admit 1")
	}
	rel2, _, ok := q.Admit("acme")
	if !ok {
		t.Fatal("admit 2")
	}
	if _, retry, ok := q.Admit("acme"); ok || retry <= 0 {
		t.Fatalf("third admit must hit the inflight cap (ok=%v retry=%v)", ok, retry)
	}
	rel1()
	rel1() // release is idempotent: it frees one slot, not two
	rel3, _, ok := q.Admit("acme")
	if !ok {
		t.Error("slot freed by release must admit again")
	}
	if _, _, ok := q.Admit("acme"); ok {
		t.Error("a second release of one admission freed another slot")
	}
	rel2()
	rel3()
}

func TestQuotasDisabled(t *testing.T) {
	q := NewQuotas(QuotaConfig{})
	if q.Enabled() {
		t.Fatal("zero config must be disabled")
	}
	for i := 0; i < 100; i++ {
		rel, _, ok := q.Admit("anyone")
		if !ok {
			t.Fatal("disabled quotas must always admit")
		}
		rel()
	}
	var nilQ *Quotas
	if nilQ.Enabled() {
		t.Error("nil quotas must read as disabled")
	}
}
