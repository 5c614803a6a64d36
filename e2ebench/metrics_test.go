package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

func names(m *metricSet) []string {
	var out []string
	for _, x := range m.list {
		out = append(out, x.name)
	}
	sort.Strings(out)
	return out
}

// TestBenchmarkJSONMatchesOutput keeps BENCHMARK.json and the metrics
// the driver prints in step: --trace 0 prints exactly the end_to_end
// names, --trace 1 exactly the per_layer names, even when every layer
// is absent.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	pr := &phaseResult{samples: []*sample{{kind: "job", latency: time.Millisecond}}, wall: time.Second}
	e2e, _ := endToEnd([]float64{0.1}, pr, wlCold)
	empty := &phaseResult{}
	layer, _ := layerMetrics(options{workload: wlCold}, empty, empty)
	for _, c := range []struct {
		got  *metricSet
		want []struct{ Name, Unit string }
	}{{e2e, spec.EndToEnd}, {layer, spec.PerLayer}} {
		units := map[string]string{}
		var want []string
		for _, w := range c.want {
			want = append(want, w.Name)
			units[w.Name] = w.Unit
		}
		sort.Strings(want)
		got := names(c.got)
		if len(got) != len(want) {
			t.Fatalf("driver prints %d metrics %v, BENCHMARK.json lists %d %v", len(got), got, len(want), want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("metric %q printed, BENCHMARK.json has %q", got[i], want[i])
			}
		}
		for _, x := range c.got.list {
			if units[x.name] != x.unit {
				t.Errorf("%s: unit %q, BENCHMARK.json says %q", x.name, x.unit, units[x.name])
			}
			if math.IsNaN(x.value) || math.IsInf(x.value, 0) {
				t.Errorf("%s: value %v", x.name, x.value)
			}
		}
	}
}

func TestPercentileTailRule(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	if v, q := percentile(vals, 50); v != 50 || q.used != 50 {
		t.Errorf("p50 = %v (p%v)", v, q.used)
	}
	// 100 samples leave 5 beyond p95: report p90, which has 10 beyond.
	if v, q := percentile(vals, 95); v != 90 || q.used != 90 {
		t.Errorf("p95 of 100 = %v (p%v), want 90 (p90)", v, q.used)
	}
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if v, q := percentile(big, 95); v != 950 || q.used != 95 {
		t.Errorf("p95 of 1000 = %v (p%v)", v, q.used)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []spanData{
		{SpanID: "root", Name: "http POST /v1/jobs", Start: at(0), Duration: 10 * time.Millisecond},
		{SpanID: "exec", ParentID: "root", Name: "job.execute", Start: at(2), Duration: 20 * time.Millisecond},
		{SpanID: "render", ParentID: "exec", Name: "render.view", Start: at(5), Duration: 10 * time.Millisecond},
		{SpanID: "s1", ParentID: "render", Name: "stage.Contour", Start: at(6), Duration: 3 * time.Millisecond},
		{SpanID: "s2", ParentID: "render", Name: "stage.Clip", Start: at(8), Duration: 3 * time.Millisecond},
		{SpanID: "poll", ParentID: "client", Name: "http GET /v1/jobs/job-1", Start: at(30), Duration: time.Millisecond},
	}
	td := reduceTrace(spans)
	self := map[string]time.Duration{}
	for i, sp := range td.spans {
		self[sp.Name] = td.self[i]
	}
	want := map[string]time.Duration{
		"http POST /v1/jobs": 2 * time.Millisecond,  // 10 minus [2,10) of job.execute
		"job.execute":        10 * time.Millisecond, // 20 minus render.view
		"render.view":        5 * time.Millisecond,  // 10 minus the union [6,11)
		"stage.Contour":      3 * time.Millisecond,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("%s self = %v, want %v", name, self[name], w)
		}
	}
	if td.window != 22*time.Millisecond {
		t.Errorf("window = %v, want 22ms (polls excluded)", td.window)
	}
	if td.total != len(spans) {
		t.Errorf("total = %d, want %d", td.total, len(spans))
	}
}
