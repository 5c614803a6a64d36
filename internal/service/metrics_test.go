package service

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"chatvis/internal/cluster"
	"chatvis/internal/data"
	"chatvis/internal/llm"
	"chatvis/internal/obs"
	"chatvis/internal/route"
)

// TestMetricsContract scrapes a daemon with every metrics-bearing
// subsystem attached (queue, store, sessions, WAL, cluster membership,
// quotas, dataset cache, tracer, router), under both negotiations, and
// checks the scrape against the registry's declared set: the families
// scraped are exactly the declared ones, each with one HELP and one TYPE
// line, every sample belongs to a declared family, no series appears
// twice, and only OpenMetrics ends in "# EOF". `make lint-metrics` runs
// this test.
func TestMetricsContract(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	wal, err := cluster.OpenWAL(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	peers, err := cluster.ParsePeers("n1=127.0.0.1:1,n2=127.0.0.1:2")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{NodeID: "n1", Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	metrics := &llm.Metrics{}
	pipeline, factory := NewServingBackend(PipelineConfig{DataDir: filepath.Join(dir, "data"), Metrics: metrics})
	queue, err := NewQueue(QueueOptions{Workers: 1, Capacity: 4, Pipeline: pipeline, Store: store, WAL: wal})
	if err != nil {
		t.Fatal(err)
	}
	defer queue.Shutdown(context.Background())
	// A synthetic two-rung profile set stands in for a calibrated store:
	// the contract is about exposition shape, not measurement.
	router := route.NewRouter(route.NewProfileSet([]route.ModelProfile{
		{Model: "codegemma", Task: llm.TaskEditIntent, Score: 1.0, CostWeight: 0.04, Seq: 1},
		{Model: "gpt-4", Task: llm.TaskEditIntent, Score: 1.0, CostWeight: 1.0, Seq: 2},
		{Model: "gpt-4", Task: llm.TaskWrite, Score: 0.9, CostWeight: 1.0, Seq: 3},
	}), nil)
	server := NewServer(queue, store, metrics).
		WithDatasetCache(data.NewCache(1<<20)).
		WithSessions(NewSessions(queue, factory)).
		WithWAL(wal).
		WithCluster(cl).
		WithQuotas(cluster.NewQuotas(cluster.QuotaConfig{RPS: 1, MaxInflight: 1})).
		WithTracer(obs.NewTracer("n1", 0)).
		WithLogger(obs.NewLogger(io.Discard, "error", "text")).
		WithBuildVersion("contract").
		WithRouter(router, "profiles.json")
	// A traced observation gives the histogram an exemplar to expose.
	queue.latency.Observe(1, "4bf92f3577b34da6a3ce929d0e0e4736")

	declared := server.metrics.Families()
	sort.Strings(declared)
	for _, openMetrics := range []bool{false, true} {
		req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
		if openMetrics {
			req.Header.Set("Accept", "application/openmetrics-text")
		}
		rec := httptest.NewRecorder()
		server.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /metrics = %d", rec.Code)
		}
		body := rec.Body.String()
		if strings.HasSuffix(body, "# EOF\n") != openMetrics {
			t.Errorf("openMetrics=%v: body ends %q", openMetrics, body[max(0, len(body)-20):])
		}
		if strings.Contains(body, "trace_id=") != openMetrics {
			t.Errorf("openMetrics=%v: exemplars present = %v", openMetrics, !openMetrics)
		}

		help, types := map[string]int{}, map[string]string{}
		series := map[string]int{}
		var samples []string
		for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
			switch f := strings.Fields(line); {
			case line == "# EOF":
			case strings.HasPrefix(line, "# HELP "):
				help[f[2]]++
			case strings.HasPrefix(line, "# TYPE "):
				if _, dup := types[f[2]]; dup {
					t.Errorf("family %s has two TYPE lines", f[2])
				}
				types[f[2]] = f[3]
			default:
				// name[{labels}] value [# exemplar]
				id, _, _ := strings.Cut(line, " ")
				if strings.Contains(id, "{") {
					id = line[:strings.Index(line, "}")+1]
				}
				series[id]++
				name, _, _ := strings.Cut(id, "{")
				samples = append(samples, name)
			}
		}
		var scraped []string
		for name, n := range help {
			scraped = append(scraped, name)
			if n != 1 {
				t.Errorf("family %s has %d HELP lines", name, n)
			}
			if types[name] == "" {
				t.Errorf("family %s has HELP but no TYPE", name)
			}
		}
		sort.Strings(scraped)
		if strings.Join(scraped, " ") != strings.Join(declared, " ") {
			t.Errorf("openMetrics=%v: scraped families\n%v\nwant the declared set\n%v", openMetrics, scraped, declared)
		}
		for _, name := range samples {
			family := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, suffix); types[base] == "histogram" {
					family = base
				}
			}
			if types[family] == "" {
				t.Errorf("sample %s belongs to no declared family", name)
			}
		}
		for id, n := range series {
			if n > 1 {
				t.Errorf("series %s appears %d times", id, n)
			}
		}
	}
}
