package obs

import (
	"strings"
	"testing"
	"time"
)

// TestRegistryRejectsBadDeclarations pins the contract by construction:
// each declaration that would break the exposition panics at declare
// time, before any scrape.
func TestRegistryRejectsBadDeclarations(t *testing.T) {
	value := func() float64 { return 1 }
	for _, tc := range []struct {
		name    string
		declare func(r *Registry)
	}{
		{"bad name", func(r *Registry) { r.Value("chatvis_Jobs", "h", Gauge, value) }},
		{"outside the namespace", func(r *Registry) { r.Value("jobs_total", "h", Counter, value) }},
		{"duplicate", func(r *Registry) {
			r.Value("chatvis_jobs_total", "h", Counter, value)
			r.Value("chatvis_jobs_total", "h", Counter, value)
		}},
		{"duplicate of a runtime family", func(r *Registry) { r.Value("chatvis_go_goroutines", "h", Gauge, value) }},
		{"counter without _total", func(r *Registry) { r.Value("chatvis_jobs", "h", Counter, value) }},
		{"_total gauge", func(r *Registry) { r.Value("chatvis_jobs_total", "h", Gauge, value) }},
		{"_total histogram", func(r *Registry) { r.Histogram("chatvis_latency_total", "h", NewHistogram(1)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("declaration did not panic")
				}
			}()
			tc.declare(NewRegistry())
		})
	}
}

// TestRegistryWrite pins the exposition: HELP and TYPE once per family,
// integral values as integers, cumulative histogram buckets, and the
// exemplars and EOF marker only under OpenMetrics.
func TestRegistryWrite(t *testing.T) {
	r := NewRegistry()
	r.Value("chatvis_jobs_total", "Jobs.", Counter, func() float64 { return 12345678 })
	r.Value("chatvis_ratio", "Ratio.", Gauge, func() float64 { return 0.25 })
	r.Labeled("chatvis_decisions_total", "Decisions.", Counter, func() []Sample {
		return []Sample{{Labels: []string{"task", "write", "model", "gpt-4"}, Value: 3}}
	})
	h := NewHistogram(0.01, 1)
	h.Observe(5*time.Millisecond, "")
	h.Observe(500*time.Millisecond, "abc")
	h.Observe(2*time.Second, "")
	r.Histogram("chatvis_job_duration_seconds", "Latency.", h)

	want := strings.Join([]string{
		"# HELP chatvis_jobs_total Jobs.",
		"# TYPE chatvis_jobs_total counter",
		"chatvis_jobs_total 12345678",
		"# HELP chatvis_ratio Ratio.",
		"# TYPE chatvis_ratio gauge",
		"chatvis_ratio 0.25",
		"# HELP chatvis_decisions_total Decisions.",
		"# TYPE chatvis_decisions_total counter",
		`chatvis_decisions_total{task="write",model="gpt-4"} 3`,
		"# HELP chatvis_job_duration_seconds Latency.",
		"# TYPE chatvis_job_duration_seconds histogram",
		`chatvis_job_duration_seconds_bucket{le="0.01"} 1`,
		`chatvis_job_duration_seconds_bucket{le="1"} 2`,
		`chatvis_job_duration_seconds_bucket{le="+Inf"} 3`,
		"chatvis_job_duration_seconds_sum 2.505",
		"chatvis_job_duration_seconds_count 3",
	}, "\n") + "\n"

	var text strings.Builder
	if err := r.Write(&text, false); err != nil {
		t.Fatal(err)
	}
	if got := text.String(); !strings.HasSuffix(got, want) || strings.Contains(got, "# EOF") || strings.Contains(got, "trace_id") {
		t.Fatalf("Prometheus text exposition:\n%s\nwant it to end with:\n%s", got, want)
	}
	for _, name := range r.Families() {
		if n := strings.Count(text.String(), "# TYPE "+name+" "); n != 1 {
			t.Errorf("family %s has %d TYPE lines", name, n)
		}
	}

	var om strings.Builder
	if err := r.Write(&om, true); err != nil {
		t.Fatal(err)
	}
	wantOM := strings.Replace(want, `{le="1"} 2`, `{le="1"} 2 # {trace_id="abc"} 0.5`, 1) + "# EOF\n"
	if got := om.String(); !strings.HasSuffix(got, wantOM) {
		t.Fatalf("OpenMetrics exposition:\n%s\nwant it to end with:\n%s", got, wantOM)
	}
}
