package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"chatvis/internal/cluster"
	"chatvis/internal/llm"
)

// clusterNode is one in-process fleet member for tests: a full queue +
// server stack with cluster routing attached.
type clusterNode struct {
	id   string
	srv  *httptest.Server
	q    *Queue
	cl   *cluster.Cluster
	pipe *stubPipeline
}

// newTestClusterNodes boots n nodes on loopback. sharedStore routes
// every node at one store directory (the deployment docs require a
// shared store); false gives each node a private one, which tests use
// to prove remote coalescing travels over HTTP rather than the disk.
func newTestClusterNodes(t *testing.T, n int, sharedStore bool, quota cluster.QuotaConfig) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, n)
	peers := make([]cluster.Peer, n)
	for i := range nodes {
		srv := httptest.NewUnstartedServer(http.NotFoundHandler())
		id := fmt.Sprintf("n%d", i+1)
		peers[i] = cluster.Peer{ID: id, Addr: srv.Listener.Addr().String()}
		nodes[i] = &clusterNode{id: id, srv: srv, pipe: &stubPipeline{}}
	}
	storeDir := t.TempDir()
	for _, node := range nodes {
		dir := storeDir
		if !sharedStore {
			dir = t.TempDir()
		}
		store, err := NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(cluster.Config{NodeID: node.id, Peers: peers})
		if err != nil {
			t.Fatal(err)
		}
		node.cl = cl
		q, err := NewQueue(QueueOptions{
			Workers:      2,
			Pipeline:     node.pipe.run,
			Store:        store,
			JobIDPrefix:  "job-" + node.id,
			RemoteLookup: ClusterLookup(cl),
		})
		if err != nil {
			t.Fatal(err)
		}
		node.q = q
		srv := NewServer(q, store, &llm.Metrics{}).WithCluster(cl)
		if quota.RPS > 0 || quota.MaxInflight > 0 {
			srv = srv.WithQuotas(cluster.NewQuotas(quota))
		}
		node.srv.Config.Handler = srv.Handler()
		node.srv.Start()
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			node.srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = node.q.Shutdown(ctx)
			cancel()
		}
	})
	return nodes
}

// ownerOf maps a job request to the node owning its content key.
func ownerOf(t *testing.T, nodes []*clusterNode, req JobRequest) (owner, other *clusterNode) {
	t.Helper()
	p, ok := nodes[0].cl.Owner(Key(req))
	if !ok {
		t.Fatal("no owner")
	}
	for _, n := range nodes {
		if n.id == p.ID {
			owner = n
		} else {
			other = n
		}
	}
	return owner, other
}

func TestClusterForwardsJobToKeyOwner(t *testing.T) {
	nodes := newTestClusterNodes(t, 2, true, cluster.QuotaConfig{})
	req := JobRequest{Prompt: "cluster forward probe"}
	owner, other := ownerOf(t, nodes, req)

	// Submit to the NON-owner: the request must relay to the owner and
	// execute exactly once, there.
	out, code := postJob(t, other.srv.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	if !strings.HasPrefix(out.ID, "job-"+owner.id+"-") {
		t.Fatalf("job %q not namespaced to owner %s", out.ID, owner.id)
	}
	waitClusterJob(t, other.srv.URL, out.ID)
	if got := owner.pipe.executions.Load(); got != 1 {
		t.Errorf("owner executed %d times, want 1", got)
	}
	if got := other.pipe.executions.Load(); got != 0 {
		t.Errorf("non-owner executed %d times, want 0", got)
	}

	// The same prompt submitted to the owner coalesces with the stored
	// result — one execution fleet-wide, however many entry points.
	out2, code2 := postJob(t, owner.srv.URL, req)
	if code2 != http.StatusOK || out2.Submission != SubmissionStoreHit {
		t.Fatalf("repeat submission: code %d outcome %q", code2, out2.Submission)
	}
}

// waitClusterJob polls a job by ID through any node's API (the GET
// forwards home by the ID's node name) until it is terminal.
func waitClusterJob(t *testing.T, baseURL, jobID string) View {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(baseURL + "/v1/jobs/" + jobID)
		if err != nil {
			t.Fatal(err)
		}
		var v View
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err == nil && v.Status.Terminal() {
			return v
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", jobID)
	return View{}
}

func TestClusterForwardLoopGuard(t *testing.T) {
	nodes := newTestClusterNodes(t, 2, true, cluster.QuotaConfig{})
	req := JobRequest{Prompt: "loop guard probe"}
	_, other := ownerOf(t, nodes, req)

	// A request already carrying the forwarded marker must be handled
	// locally — even on the "wrong" node — never relayed again.
	body, _ := json.Marshal(req)
	hr, _ := http.NewRequest(http.MethodPost, other.srv.URL+"/v1/jobs", bytes.NewReader(body))
	hr.Header.Set(ForwardedHeader, "test")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	var out submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.HasPrefix(out.ID, "job-"+other.id+"-") {
		t.Errorf("forwarded request relayed again: job %q accepted off-node", out.ID)
	}
	waitClusterJob(t, other.srv.URL, out.ID)
}

func TestClusterRemoteCoalesceFallback(t *testing.T) {
	// One shared store, as deployed: the non-owner's worker finds no
	// stored result, so before executing it asks the owner over the
	// /v1/cluster/result probe, waits on the owner's in-flight execution
	// and reuses its result.
	nodes := newTestClusterNodes(t, 2, true, cluster.QuotaConfig{})
	req := JobRequest{Prompt: "remote coalesce probe"}
	owner, other := ownerOf(t, nodes, req)
	owner.pipe.gate = make(chan struct{})

	// The owner starts the job and holds it in flight.
	out, _ := postJob(t, owner.srv.URL, req)
	for deadline := time.Now().Add(5 * time.Second); owner.pipe.executions.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("owner never started the job")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The non-owner accepts the same work locally (forwarded marker set,
	// as if it had arrived via a relay) while the owner still runs it.
	body, _ := json.Marshal(req)
	hr, _ := http.NewRequest(http.MethodPost, other.srv.URL+"/v1/jobs", bytes.NewReader(body))
	hr.Header.Set(ForwardedHeader, "test")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	_ = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if sub.Submission != SubmissionNew {
		t.Fatalf("non-owner submission = %q, want %q", sub.Submission, SubmissionNew)
	}
	close(owner.pipe.gate)
	waitClusterJob(t, owner.srv.URL, out.ID)
	v := waitClusterJob(t, other.srv.URL, sub.ID)
	if v.Status != StatusSucceeded {
		t.Fatalf("remote-coalesced job %s: %+v", sub.ID, v)
	}
	if got := owner.pipe.executions.Load(); got != 1 {
		t.Errorf("owner executions = %d, want 1", got)
	}
	if got := other.pipe.executions.Load(); got != 0 {
		t.Errorf("non-owner executed %d times despite remote result", got)
	}
	if snap := other.q.Snapshot(); snap.RemoteHits != 1 {
		t.Errorf("remote hits = %d, want 1", snap.RemoteHits)
	}
}

// TestClusterResultNeedsEveryObject pins that the coalescing probe
// answers only with results whose objects are all stored: with one
// screenshot deleted, GET /v1/cluster/result/{key} is a 404.
func TestClusterResultNeedsEveryObject(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	shot, err := store.Put([]byte("\x89PNG stub"), "image/png")
	if err != nil {
		t.Fatal(err)
	}
	res := storedResult(t, store, Key(JobRequest{Prompt: "stale probe"}), shot)
	if err := os.Remove(store.objectPath(shot, "image/png")); err != nil {
		t.Fatal(err)
	}
	// A fresh store over the directory, as after a restart or on a peer
	// sharing it, sees the screenshot gone.
	store, err = NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(QueueOptions{Workers: 1, Pipeline: (&stubPipeline{}).run, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Shutdown(context.Background())
	srv := httptest.NewServer(NewServer(q, store, nil).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/cluster/result/" + res.Key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/cluster/result over a result missing a screenshot = %d, want 404", resp.StatusCode)
	}
}

// storedResult stores a successful result for key whose script and
// artifact objects exist, naming the given screenshots.
func storedResult(t *testing.T, store *Store, key string, shots ...string) *Result {
	t.Helper()
	script, err := store.Put([]byte("print('stored')\n"), "text/x-python")
	if err != nil {
		t.Fatal(err)
	}
	artifact, err := store.Put([]byte(`{"stored":true}`), "application/json")
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{Key: key, Model: "gpt-4", Success: true, ScriptHash: script,
		ArtifactHash: artifact, ScreenshotHashes: shots, CreatedAt: time.Now()}
	if err := store.PutResult(res); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestClusterLookupFailsOverToNextOwner(t *testing.T) {
	// Two live nodes plus a phantom peer that never answers: keys owned
	// by the phantom must fail over to their next preference after one
	// connection error.
	live := newTestClusterNodes(t, 2, false, cluster.QuotaConfig{})
	peers := []cluster.Peer{
		{ID: live[0].id, Addr: live[0].srv.Listener.Addr().String()},
		{ID: live[1].id, Addr: live[1].srv.Listener.Addr().String()},
		{ID: "ghost", Addr: "127.0.0.1:1"}, // reserved port: dials fail fast
	}
	cl, err := cluster.New(cluster.Config{NodeID: live[0].id, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	// Find a key whose first preference is the ghost and second is the
	// other live node.
	var key string
	for i := 0; ; i++ {
		key = Key(JobRequest{Prompt: fmt.Sprintf("failover probe %d", i)})
		prefs := cl.Owners(key, 2)
		if prefs[0].ID == "ghost" && prefs[1].ID == live[1].id {
			break
		}
	}
	// Seed the fail-over target with a result for the key.
	storedResult(t, live[1].q.store, key)
	lookup := ClusterLookup(cl)
	got, ok := lookup(context.Background(), key)
	if !ok || got == nil || got.Key != key {
		t.Fatalf("lookup after owner death failed: ok=%v res=%+v", ok, got)
	}
	if cl.Alive("ghost") {
		t.Error("dead owner not marked down by the failed probe")
	}
}

func TestClusterTenantQuota(t *testing.T) {
	nodes := newTestClusterNodes(t, 1, true, cluster.QuotaConfig{RPS: 0.01, Burst: 1})
	url := nodes[0].srv.URL

	post := func(tenant string, forwardedAs string, prompt string) *http.Response {
		body, _ := json.Marshal(JobRequest{Prompt: prompt})
		hr, _ := http.NewRequest(http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
		if tenant != "" {
			hr.Header.Set(TenantHeader, tenant)
		}
		if forwardedAs != "" {
			hr.Header.Set(ForwardedHeader, forwardedAs)
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := post("acme", "", "quota probe 1"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first request: %d", resp.StatusCode)
	}
	resp := post("acme", "", "quota probe 2")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// Another tenant has its own bucket.
	if resp := post("globex", "", "quota probe 3"); resp.StatusCode != http.StatusAccepted {
		t.Errorf("independent tenant throttled: %d", resp.StatusCode)
	}
	// A relayed request skips the quota: its front door already charged.
	if resp := post("acme", "n9", "quota probe 4"); resp.StatusCode != http.StatusAccepted {
		t.Errorf("forwarded request throttled: %d", resp.StatusCode)
	}

	// The throttle shows up on /metrics.
	mresp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	metrics, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(metrics), "chatvis_tenant_throttled_total 1") {
		t.Errorf("metrics missing throttle counter:\n%s", grepMetrics(string(metrics), "tenant"))
	}
}

func TestClusterHealthzAcceptNegotiation(t *testing.T) {
	nodes := newTestClusterNodes(t, 2, true, cluster.QuotaConfig{})
	url := nodes[0].srv.URL + "/healthz"

	// Legacy probe: plain GET keeps the small body (and a 200).
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	var legacy map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&legacy)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || legacy["status"] != "ok" {
		t.Fatalf("legacy healthz: %d %+v", resp.StatusCode, legacy)
	}
	if _, has := legacy["ring"]; has {
		t.Error("legacy healthz grew a ring field without Accept negotiation")
	}

	// Cluster-aware probe: Accept: application/json unlocks the rich body.
	hr, _ := http.NewRequest(http.MethodGet, url, nil)
	hr.Header.Set("Accept", "application/json")
	resp2, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	var rich struct {
		Status string               `json:"status"`
		Node   string               `json:"node"`
		Ring   []cluster.PeerHealth `json:"ring"`
	}
	_ = json.NewDecoder(resp2.Body).Decode(&rich)
	resp2.Body.Close()
	if rich.Node != nodes[0].id || len(rich.Ring) != 2 {
		t.Fatalf("rich healthz: %+v", rich)
	}
	for _, p := range rich.Ring {
		if !p.Healthy {
			t.Errorf("peer %s unhealthy in fresh cluster", p.ID)
		}
	}
}

// TestClusterMetricsScrapeFormat checks the new cluster series exist
// and the whole exposition stays parseable: every sample line follows
// a HELP/TYPE pair for its metric.
func TestClusterMetricsScrapeFormat(t *testing.T) {
	nodes := newTestClusterNodes(t, 2, true, cluster.QuotaConfig{RPS: 100, Burst: 100})
	req := JobRequest{Prompt: "metrics probe"}
	_, other := ownerOf(t, nodes, req)
	out, _ := postJob(t, other.srv.URL, req)
	waitClusterJob(t, other.srv.URL, out.ID)

	resp, err := http.Get(other.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	for _, name := range []string{
		"chatvis_cluster_peers_healthy",
		"chatvis_cluster_forwards_total",
		"chatvis_cluster_remote_coalesce_hits_total",
		"chatvis_tenant_throttled_total",
	} {
		if !strings.Contains(body, "# TYPE "+name+" ") {
			t.Errorf("missing TYPE line for %s", name)
		}
		if !strings.Contains(body, "\n"+name+" ") {
			t.Errorf("missing sample for %s", name)
		}
	}
	if !strings.Contains(body, "chatvis_cluster_peers_healthy 2") {
		t.Errorf("peers_healthy sample wrong:\n%s", grepMetrics(body, "peers_healthy"))
	}
	// The submit relayed once and every status poll relayed again, so
	// the counter is at least 2 (submit + final poll).
	forwards := -1
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "chatvis_cluster_forwards_total ") {
			fmt.Sscanf(line, "chatvis_cluster_forwards_total %d", &forwards)
		}
	}
	if forwards < 2 {
		t.Errorf("forwards_total = %d, want >= 2:\n%s", forwards, grepMetrics(body, "forwards"))
	}
	// Exposition discipline: declared TYPEs only, HELP before TYPE.
	declared := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 || (fields[3] != "counter" && fields[3] != "gauge" && fields[3] != "histogram") {
				t.Errorf("bad TYPE line: %q", line)
				continue
			}
			declared[fields[2]] = true
		}
	}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := strings.FieldsFunc(line, func(r rune) bool { return r == ' ' || r == '{' })[0]
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) && declared[strings.TrimSuffix(name, suffix)] {
				base = strings.TrimSuffix(name, suffix)
			}
		}
		if !declared[base] {
			t.Errorf("sample %q has no TYPE declaration", name)
		}
	}
}

// grepMetrics filters an exposition body for error messages.
func grepMetrics(body, substr string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

func TestJobNodeParsing(t *testing.T) {
	cases := []struct {
		id   string
		node string
		ok   bool
	}{
		{"job-n1-12", "n1", true},
		{"job-edge-node-7", "edge-node", true},
		{"job-7", "", false}, // single-node default prefix
		{"turn-3", "", false},
		{"job-", "", false},
		{"job-n1-x", "", false},
	}
	for _, c := range cases {
		node, ok := jobNode(c.id)
		if ok != c.ok || node != c.node {
			t.Errorf("jobNode(%q) = %q,%v want %q,%v", c.id, node, ok, c.node, c.ok)
		}
	}
}

func TestSessionIDOwnershipMinting(t *testing.T) {
	m, _ := newTestSessions(t)
	// Only IDs containing "7" are "ours": Create must salt candidates
	// until the predicate accepts one.
	m.WithOwnership(func(id string) bool { return strings.Contains(id, "7") })
	for i := 0; i < 5; i++ {
		s, err := m.Create(SessionRequest{Model: "oracle"})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(s.ID, "7") {
			t.Fatalf("minted ID %q fails the ownership predicate", s.ID)
		}
		if _, ok := m.Get(s.ID); !ok {
			t.Fatalf("minted session %q not registered", s.ID)
		}
	}
}

func TestClusterSessionTurnForwarding(t *testing.T) {
	// Two nodes over one shared store, sessions enabled on both. A turn
	// POSTed to the non-owner must relay to the session's ring owner.
	nodes := newTestClusterNodes(t, 2, true, cluster.QuotaConfig{})
	for _, node := range nodes {
		_, factory := NewServingBackend(PipelineConfig{DataDir: t.TempDir()})
		store := node.q.store
		cl := node.cl
		sessions := NewSessions(node.q, factory).WithOwnership(func(id string) bool {
			owner, ok := cl.Owner(id)
			return ok && cl.IsSelf(owner)
		})
		srv := NewServer(node.q, store, &llm.Metrics{}).WithCluster(cl).WithSessions(sessions)
		node.srv.Config.Handler = srv.Handler()
	}

	// Create on n1: the minted ID is owned by n1 on the ring.
	body, _ := json.Marshal(SessionRequest{Model: "oracle", Width: 320, Height: 180})
	resp, err := http.Post(nodes[0].srv.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sv SessionView
	_ = json.NewDecoder(resp.Body).Decode(&sv)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || sv.ID == "" {
		t.Fatalf("create: %d %+v", resp.StatusCode, sv)
	}
	if owner, _ := nodes[0].cl.Owner(sv.ID); owner.ID != nodes[0].id {
		t.Fatalf("session %q not owned by its creator", sv.ID)
	}

	// Submit the turn to n2: it must forward to n1 and run there.
	turnBody, _ := json.Marshal(TurnRequest{Prompt: sessionIsoPrompt})
	resp2, err := http.Post(nodes[1].srv.URL+"/v1/sessions/"+sv.ID+"/turns", "application/json", bytes.NewReader(turnBody))
	if err != nil {
		t.Fatal(err)
	}
	var tr submitTurnResponse
	_ = json.NewDecoder(resp2.Body).Decode(&tr)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted || tr.Submission != SubmissionNew {
		t.Fatalf("turn submit via peer: %d %+v", resp2.StatusCode, tr)
	}
	if resp2.Header.Get(ForwardedHeader) != nodes[0].id {
		t.Errorf("turn response not marked as relayed to %s", nodes[0].id)
	}

	// The turn must complete, observable from EITHER node.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp3, err := http.Get(nodes[1].srv.URL + "/v1/sessions/" + sv.ID + "/turns/" + tr.ID)
		if err != nil {
			t.Fatal(err)
		}
		var view TurnView
		_ = json.NewDecoder(resp3.Body).Decode(&view)
		resp3.Body.Close()
		if view.Status.Terminal() {
			if view.Status != StatusSucceeded {
				t.Fatalf("turn failed: %+v", view)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("turn %s never finished (last: %+v)", tr.ID, view)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
