// Command metriclint is the CI gate for the /metrics contract: it wires
// a fully-attached in-memory daemon (queue, store, sessions, WAL,
// cluster membership, quotas, dataset cache, tracer), scrapes the
// handler in both Prometheus text and OpenMetrics negotiation, and
// fails when any chatvis_* metric name is not snake_case, is missing
// HELP/TYPE metadata, or is registered more than once.
//
// Usage: go run ./cmd/metriclint  (exits non-zero on violations)
package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"chatvis/internal/cluster"
	"chatvis/internal/data"
	"chatvis/internal/llm"
	"chatvis/internal/obs"
	"chatvis/internal/route"
	"chatvis/internal/service"
)

var nameRE = regexp.MustCompile(`^chatvis_[a-z][a-z0-9_]*$`)

// requiredFamilies are metric families every scrape must expose; a
// refactor that silently drops one of these fails the lint. The
// chatvis_par_* group is the sweep-scheduler telemetry of the parallel
// compute substrate.
var requiredFamilies = []string{
	// Measured model routing (docs/routing.md).
	"chatvis_route_decisions_total",
	"chatvis_route_escalations_total",
	"chatvis_route_fallbacks_total",
	"chatvis_route_profiles",
	"chatvis_route_task_decisions_total",
	"chatvis_compute_workers",
	"chatvis_par_parallelism",
	"chatvis_par_sweeps_total",
	"chatvis_par_chunks_total",
	"chatvis_par_busy_seconds_total",
	"chatvis_par_imbalance_avg",
}

func main() {
	body, err := scrape()
	if err != nil {
		fmt.Fprintf(os.Stderr, "metriclint: %v\n", err)
		os.Exit(1)
	}
	problems := lint(body)
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "metriclint: %s\n", p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
	fmt.Println("metriclint: ok")
}

// scrape builds a daemon with every metrics-bearing subsystem attached
// and returns one /metrics response body (OpenMetrics negotiation, the
// superset: it includes the exemplar syntax and the EOF marker).
func scrape() (string, error) {
	dir, err := os.MkdirTemp("", "metriclint-*")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)

	store, err := service.NewStore(filepath.Join(dir, "store"))
	if err != nil {
		return "", err
	}
	wal, err := cluster.OpenWAL(filepath.Join(dir, "wal"))
	if err != nil {
		return "", err
	}
	defer wal.Close()
	peers, err := cluster.ParsePeers("n1=127.0.0.1:1,n2=127.0.0.1:2")
	if err != nil {
		return "", err
	}
	cl, err := cluster.New(cluster.Config{NodeID: "n1", Peers: peers})
	if err != nil {
		return "", err
	}

	metrics := &llm.Metrics{}
	pipeline, factory := service.NewServingBackend(service.PipelineConfig{
		DataDir: filepath.Join(dir, "data"),
		Metrics: metrics,
	})
	queue, err := service.NewQueue(service.QueueOptions{
		Workers: 1, Capacity: 4, Pipeline: pipeline, Store: store, WAL: wal,
	})
	if err != nil {
		return "", err
	}
	sessions := service.NewSessions(queue, factory)

	// A synthetic two-rung profile set stands in for a calibrated store:
	// the lint checks exposition shape, not measurement.
	router := route.NewRouter(route.NewProfileSet([]route.ModelProfile{
		{Model: "codegemma", Task: llm.TaskEditIntent, Score: 1.0, CostWeight: 0.04, Seq: 1},
		{Model: "gpt-4", Task: llm.TaskEditIntent, Score: 1.0, CostWeight: 1.0, Seq: 2},
		{Model: "gpt-4", Task: llm.TaskWrite, Score: 0.9, CostWeight: 1.0, Seq: 3},
	}), nil)

	server := service.NewServer(queue, store, metrics).
		WithDatasetCache(data.NewCache(1<<20)).
		WithSessions(sessions).
		WithWAL(wal).
		WithCluster(cl).
		WithQuotas(cluster.NewQuotas(cluster.QuotaConfig{RPS: 1, MaxInflight: 1})).
		WithTracer(obs.NewTracer("n1", 0)).
		WithLogger(obs.NewLogger(io.Discard, "error", "text")).
		WithBuildVersion("metriclint").
		WithRouter(router, "profiles.json")

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	rec := httptest.NewRecorder()
	server.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return "", fmt.Errorf("GET /metrics = %d", rec.Code)
	}
	return rec.Body.String(), nil
}

// family maps a sample name to the family its HELP/TYPE metadata is
// declared under (histograms declare under the base name).
func family(name string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suffix) {
			return strings.TrimSuffix(name, suffix)
		}
	}
	return name
}

func lint(body string) []string {
	var problems []string
	helpCount := map[string]int{}
	typeCount := map[string]int{}
	sampleCount := map[string]int{} // full sample identity: name{labels}
	sampleNames := map[string]bool{}

	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "" || line == "# EOF":
		case strings.HasPrefix(line, "# HELP "):
			fields := strings.Fields(line)
			if len(fields) >= 3 {
				helpCount[fields[2]]++
			}
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) >= 3 {
				typeCount[fields[2]]++
			}
		case strings.HasPrefix(line, "#"):
		default:
			// Sample: name[{labels}] value [# exemplar]
			name := line
			identity := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			if j := strings.LastIndex(identity, "}"); j >= 0 {
				identity = identity[:j+1]
			} else if i := strings.Index(identity, " "); i >= 0 {
				identity = identity[:i]
			}
			sampleCount[identity]++
			sampleNames[name] = true
		}
	}

	declared := map[string]bool{}
	for name, n := range helpCount {
		declared[name] = true
		if strings.HasPrefix(name, "chatvis_") && !nameRE.MatchString(name) {
			problems = append(problems, fmt.Sprintf("metric %q is not snake_case", name))
		}
		if n > 1 {
			problems = append(problems, fmt.Sprintf("metric %q has %d HELP lines (want 1)", name, n))
		}
		if typeCount[name] == 0 {
			problems = append(problems, fmt.Sprintf("metric %q has HELP but no TYPE", name))
		}
	}
	for name, n := range typeCount {
		if n > 1 {
			problems = append(problems, fmt.Sprintf("metric %q has %d TYPE lines (want 1)", name, n))
		}
		if helpCount[name] == 0 {
			problems = append(problems, fmt.Sprintf("metric %q has TYPE but no HELP", name))
		}
	}
	for name := range sampleNames {
		if !strings.HasPrefix(name, "chatvis_") {
			problems = append(problems, fmt.Sprintf("sample %q outside the chatvis_ namespace", name))
			continue
		}
		if !nameRE.MatchString(name) {
			problems = append(problems, fmt.Sprintf("sample %q is not snake_case", name))
		}
		if !declared[family(name)] {
			problems = append(problems, fmt.Sprintf("sample %q has no HELP/TYPE metadata", name))
		}
	}
	for identity, n := range sampleCount {
		if n > 1 {
			problems = append(problems, fmt.Sprintf("series %q registered %d times (want 1)", identity, n))
		}
	}
	for _, name := range requiredFamilies {
		if !sampleNames[name] {
			problems = append(problems, fmt.Sprintf("required metric %q missing from scrape", name))
		}
	}
	if len(sampleNames) == 0 {
		problems = append(problems, "no samples scraped — handler wiring broken")
	}
	return problems
}
