package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"image/png"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chatvis/internal/par"
	"chatvis/internal/service"
)

// TestDaemonSmoke is the CI smoke step (`make smoke`): it starts the
// daemon wiring on a real listener, lists scenarios, submits a job
// against the stub "oracle" LLM profile, polls it to completion, fetches
// the script and screenshot artifacts by hash, and drains the queue.
func TestDaemonSmoke(t *testing.T) {
	outDir := t.TempDir()
	d, err := buildDaemon(daemonConfig{
		dataDir: t.TempDir(),
		outDir:  outDir,
		workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	queue, server := d.queue, d.server
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()

	// Health first: the daemon must be alive before anything else.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// Pick a scenario prompt off the daemon's own listing.
	resp, err = http.Get(srv.URL + "/v1/scenarios?width=320&height=180")
	if err != nil {
		t.Fatal(err)
	}
	var scns struct {
		Scenarios []struct {
			ID     string `json:"id"`
			Prompt string `json:"prompt"`
		} `json:"scenarios"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&scns); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var prompt string
	for _, s := range scns.Scenarios {
		if s.ID == "iso" {
			prompt = s.Prompt
		}
	}
	if prompt == "" {
		t.Fatal("scenario listing missing iso")
	}

	// Submit against the stub profile and poll to completion.
	body, _ := json.Marshal(service.JobRequest{
		Prompt: prompt, SessionRequest: service.SessionRequest{Model: "oracle", Width: 320, Height: 180},
	})
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.ID == "" {
		t.Fatalf("POST /v1/jobs = %d %+v", resp.StatusCode, sub)
	}

	var view service.View
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", sub.ID, view.Status)
		}
		resp, err := http.Get(srv.URL + "/v1/jobs/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if view.Status.Terminal() {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if view.Status != service.StatusSucceeded || view.Result == nil {
		t.Fatalf("job finished %s (%s)", view.Status, view.Error)
	}
	if !view.Result.Success {
		t.Fatal("oracle pipeline should produce a working script")
	}
	if len(view.Result.Trace.Stages) == 0 {
		t.Error("job result carries no session trace")
	}

	// Artifacts are retrievable by hash with the right content types.
	fetch := func(hash, wantType string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/artifacts/" + hash)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET artifact %s = %d", hash, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != wantType {
			t.Errorf("artifact %s content type = %q, want %q", hash, ct, wantType)
		}
		b, _ := io.ReadAll(resp.Body)
		return b
	}
	script := fetch(view.Result.ScriptHash, "text/x-python")
	if !strings.Contains(string(script), "from paraview.simple import *") {
		t.Errorf("stored script looks wrong: %.80q", script)
	}
	if len(view.Result.ScreenshotHashes) == 0 {
		t.Fatal("no screenshot artifacts stored")
	}
	png := fetch(view.Result.ScreenshotHashes[0], "image/png")
	if len(png) < 8 || !bytes.HasPrefix(png, []byte("\x89PNG")) {
		t.Error("stored screenshot is not a PNG")
	}

	// An identical resubmission is answered from the store (HTTP 200,
	// no new execution).
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var again struct {
		Submission string `json:"submission"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&again); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || again.Submission != "store" {
		t.Errorf("resubmit: %d %+v", resp.StatusCode, again)
	}

	// Metrics reflect the run and the daemon drains cleanly.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"chatvis_jobs_executed_total 1",
		"chatvis_jobs_store_hits_total 1",
		"chatvis_llm_calls_total",
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := queue.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	checkDaemonOutput(t, outDir, view.Result.ScreenshotHashes)
}

// checkDaemonOutput asserts what a drained daemon leaves under its -out
// directory: the artifact store and the WAL, and no per-request files.
// Every screenshot hash must name a stored object whose bytes hash to it
// and decode as a PNG.
func checkDaemonOutput(t *testing.T, outDir string, shots []string) {
	t.Helper()
	entries, err := os.ReadDir(outDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if strings.Join(names, " ") != "store wal" {
		t.Errorf("-out holds %v, want only [store wal]", names)
	}
	store, err := service.NewStore(filepath.Join(outDir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range shots {
		b, info, err := store.Get(h)
		if err != nil {
			t.Errorf("screenshot %s: %v", h, err)
			continue
		}
		if service.HashBytes(b) != h || info.ContentType != "image/png" {
			t.Errorf("screenshot %s: stored bytes hash to %s, type %s", h, service.HashBytes(b), info.ContentType)
		}
		if _, err := png.Decode(bytes.NewReader(b)); err != nil {
			t.Errorf("screenshot %s: %v", h, err)
		}
	}
}

// TestDaemonConcurrentIdenticalSubmissions verifies the acceptance
// criterion end-to-end: N identical concurrent POSTs against the stub
// profile yield exactly one pipeline execution.
func TestDaemonConcurrentIdenticalSubmissions(t *testing.T) {
	d, err := buildDaemon(daemonConfig{
		dataDir: t.TempDir(),
		outDir:  t.TempDir(),
		workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	queue, server := d.queue, d.server
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()

	body, _ := json.Marshal(service.JobRequest{
		Prompt:         "Please generate a ParaView Python script for the following operations. Read in the file named ml-100.vtk. Generate an isosurface of the variable var0 at value 0.5. Save a screenshot of the result in the filename iso.png. The rendered view and saved screenshot should be 320 x 180 pixels.",
		SessionRequest: service.SessionRequest{Model: "oracle", Width: 320, Height: 180},
	})
	const n = 10
	errs := make(chan error, n)
	ids := make(chan string, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var sub struct {
				ID string `json:"id"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
				errs <- err
				return
			}
			ids <- sub.ID
			errs <- nil
		}()
	}
	idSet := map[string]bool{}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(ids)
	for id := range ids {
		idSet[id] = true
	}
	// A submission that lands after the (fast) first execution finishes
	// is legitimately answered from the store under a fresh job id, so
	// the id set is not asserted to be exactly 1 — the acceptance
	// criterion is that the burst costs ONE pipeline execution, checked
	// below. (Strict same-id coalescing is pinned deterministically with
	// a gated stub in internal/service.)
	for id := range idSet {
		deadline := time.Now().Add(30 * time.Second)
		for {
			if time.Now().After(deadline) {
				t.Fatalf("job %s never finished", id)
			}
			resp, err := http.Get(srv.URL + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var v service.View
			err = json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if v.Status.Terminal() {
				if v.Status != service.StatusSucceeded {
					t.Fatalf("job %s = %s (%s)", id, v.Status, v.Error)
				}
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if snap := queue.Snapshot(); snap.Executed != 1 {
		t.Errorf("executed = %d, want 1 (n=%d identical submissions)", snap.Executed, n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := queue.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestDaemonSessionTwoTurns is the session smoke step (`make smoke`): it
// drives a two-turn conversation against a live daemon — create a
// session, build an isosurface, then edit one value — and asserts the
// second turn re-executed only the changed stage (and its downstream
// subtree), which is the whole point of the session API.
func TestDaemonSessionTwoTurns(t *testing.T) {
	outDir := t.TempDir()
	d, err := buildDaemon(daemonConfig{
		dataDir: t.TempDir(),
		outDir:  outDir,
		workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	queue, server := d.queue, d.server
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()

	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	// Create a session bound to the stub profile.
	code, body := post("/v1/sessions", `{"model":"oracle","width":320,"height":180}`)
	var created service.SessionView
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusCreated || created.ID == "" {
		t.Fatalf("POST /v1/sessions = %d %s", code, body)
	}

	pollTurn := func(turnID string) service.TurnView {
		t.Helper()
		var tv service.TurnView
		deadline := time.Now().Add(30 * time.Second)
		for {
			if time.Now().After(deadline) {
				t.Fatalf("turn %s stuck in %s", turnID, tv.Status)
			}
			resp, err := http.Get(srv.URL + "/v1/sessions/" + created.ID + "/turns/" + turnID)
			if err != nil {
				t.Fatal(err)
			}
			err = json.NewDecoder(resp.Body).Decode(&tv)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if tv.Status.Terminal() {
				return tv
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Turn 1: build.
	turnBody, _ := json.Marshal(service.TurnRequest{
		Prompt: "Please generate a ParaView Python script for the following operations. Read in the file named ml-100.vtk. Generate an isosurface of the variable var0 at value 0.5. Save a screenshot of the result in the filename iso.png. The rendered view and saved screenshot should be 320 x 180 pixels.",
	})
	code, body = post("/v1/sessions/"+created.ID+"/turns", string(turnBody))
	var t1 struct {
		service.TurnView
		Submission string `json:"submission"`
	}
	if err := json.Unmarshal(body, &t1); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusAccepted {
		t.Fatalf("POST turn 1 = %d %s", code, body)
	}
	v1 := pollTurn(t1.ID)
	if v1.Status != service.StatusSucceeded || !v1.Success {
		t.Fatalf("turn 1 = %s (%s)", v1.Status, v1.Error)
	}

	// Turn 2: edit exactly one stage.
	turnBody, _ = json.Marshal(service.TurnRequest{Prompt: "Raise the isovalue to 0.7."})
	code, body = post("/v1/sessions/"+created.ID+"/turns", string(turnBody))
	var t2 struct {
		service.TurnView
		Submission string `json:"submission"`
	}
	if err := json.Unmarshal(body, &t2); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusAccepted {
		t.Fatalf("POST turn 2 = %d %s", code, body)
	}
	v2 := pollTurn(t2.ID)
	if v2.Status != service.StatusSucceeded || !v2.Success {
		t.Fatalf("turn 2 = %s (%s)", v2.Status, v2.Error)
	}
	if v2.ParentPlanHash != v1.PlanHash {
		t.Errorf("turn 2 parent plan = %s, want %s", v2.ParentPlanHash, v1.PlanHash)
	}
	// THE assertion: only the edited stage (its downstream subtree holds
	// no other pipeline stage) re-executed.
	if v2.ExecutionsDelta != 1 {
		t.Errorf("turn 2 executions delta = %d, want 1 (incremental re-exec)", v2.ExecutionsDelta)
	}
	if len(v2.ChangedStages) == 0 {
		t.Error("turn 2 lists no changed stages")
	}
	if len(v2.ScreenshotHashes) == 0 {
		t.Error("turn 2 stored no screenshot")
	}

	// Session metrics visible on /metrics.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"chatvis_sessions_active 1",
		"chatvis_session_turns_total 2",
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := queue.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	checkDaemonOutput(t, outDir, append(v1.ScreenshotHashes, v2.ScreenshotHashes...))
}

// TestDaemonComputeFlagsAndDatasetCache covers the -compute-workers /
// -dataset-cache-mb plumbing: the worker count lands in the par pool and
// /metrics, and two different jobs over the same input dataset share the
// content-hash dataset cache (the second job's reader is a cache hit).
func TestDaemonComputeFlagsAndDatasetCache(t *testing.T) {
	d, err := buildDaemon(daemonConfig{
		dataDir:        t.TempDir(),
		outDir:         t.TempDir(),
		workers:        2,
		computeWorkers: 3,
		datasetCacheMB: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	queue, server := d.queue, d.server
	defer par.SetWorkers(0)
	if got := par.Workers(); got != 3 {
		t.Fatalf("par.Workers() = %d, want 3 (from -compute-workers)", got)
	}
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()

	submit := func(iso string) {
		t.Helper()
		body, _ := json.Marshal(service.JobRequest{
			Prompt:         "Please generate a ParaView Python script for the following operations. Read in the file named ml-100.vtk. Generate an isosurface of the variable var0 at value " + iso + ". Save a screenshot of the result in the filename iso.png. The rendered view and saved screenshot should be 320 x 180 pixels.",
			SessionRequest: service.SessionRequest{Model: "oracle", Width: 320, Height: 180},
		})
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var sub struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		deadline := time.Now().Add(30 * time.Second)
		for {
			if time.Now().After(deadline) {
				t.Fatalf("job %s never finished", sub.ID)
			}
			resp, err := http.Get(srv.URL + "/v1/jobs/" + sub.ID)
			if err != nil {
				t.Fatal(err)
			}
			var v service.View
			err = json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if v.Status.Terminal() {
				if v.Status != service.StatusSucceeded {
					t.Fatalf("job %s = %s (%s)", sub.ID, v.Status, v.Error)
				}
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	// Two distinct prompts (no store/coalescing dedup) over one dataset.
	submit("0.4000")
	submit("0.6000")

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"chatvis_compute_workers 3",
		"chatvis_dataset_cache_entries",
		"chatvis_dataset_cache_capacity_bytes 67108864",
		"chatvis_dataset_cache_hits_total",
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The second job re-read the same file: the shared dataset cache must
	// report at least one hit.
	for _, line := range strings.Split(string(metricsBody), "\n") {
		if strings.HasPrefix(line, "chatvis_dataset_cache_hits_total ") {
			if strings.TrimSpace(strings.TrimPrefix(line, "chatvis_dataset_cache_hits_total ")) == "0" {
				t.Errorf("dataset cache saw no hits across two jobs on one input: %s", line)
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := queue.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestClusterSmoke3Nodes is the CI cluster smoke step
// (`make smoke-cluster`): it boots three full daemons on loopback
// sharing one artifact store, posts the identical prompt to all three
// at once, and asserts the fleet executed the pipeline exactly once.
// It then creates a session (which lands on its ring owner) and drives
// a turn through a NON-owner node to prove session forwarding.
func TestClusterSmoke3Nodes(t *testing.T) {
	const n = 3
	listeners := make([]*httptest.Server, n)
	peerSpec := make([]string, n)
	for i := range listeners {
		listeners[i] = httptest.NewUnstartedServer(http.NotFoundHandler())
		peerSpec[i] = fmt.Sprintf("n%d=%s", i+1, listeners[i].Listener.Addr().String())
	}
	peers := strings.Join(peerSpec, ",")

	sharedStore := t.TempDir()
	daemons := make([]*daemon, n)
	for i := range daemons {
		d, err := buildDaemon(daemonConfig{
			dataDir:  t.TempDir(),
			outDir:   t.TempDir(),
			storeDir: sharedStore,
			workers:  2,
			nodeID:   fmt.Sprintf("n%d", i+1),
			peers:    peers,
		})
		if err != nil {
			t.Fatal(err)
		}
		daemons[i] = d
		listeners[i].Config.Handler = d.server.Handler()
		listeners[i].Start()
		d.cluster.Start()
	}
	t.Cleanup(func() {
		for i, d := range daemons {
			listeners[i].Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = d.queue.Shutdown(ctx)
			cancel()
			d.close()
		}
	})

	// The same prompt hits every node simultaneously. The ring routes
	// all three to one owner, which coalesces them onto one execution.
	prompt := "Please generate a ParaView Python script for the following operations. Read in the file named ml-100.vtk. Generate an isosurface of the variable var0 at value 0.5. Save a screenshot of the result in the filename iso.png. The rendered view and saved screenshot should be 320 x 180 pixels."
	body, _ := json.Marshal(service.JobRequest{
		Prompt: prompt, SessionRequest: service.SessionRequest{Model: "oracle", Width: 320, Height: 180},
	})
	type submitResult struct {
		id   string
		code int
		err  error
	}
	results := make(chan submitResult, n)
	for i := range listeners {
		go func(url string) {
			resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				results <- submitResult{err: err}
				return
			}
			defer resp.Body.Close()
			var sub struct {
				ID string `json:"id"`
			}
			err = json.NewDecoder(resp.Body).Decode(&sub)
			results <- submitResult{id: sub.ID, code: resp.StatusCode, err: err}
		}(listeners[i].URL)
	}
	ids := make([]string, 0, n)
	for range listeners {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.code != http.StatusAccepted && r.code != http.StatusOK {
			t.Fatalf("submit = %d", r.code)
		}
		ids = append(ids, r.id)
	}

	// Every node can resolve every job ID (namespaced IDs route home).
	for _, id := range ids {
		for _, l := range listeners {
			deadline := time.Now().Add(60 * time.Second)
			for {
				resp, err := http.Get(l.URL + "/v1/jobs/" + id)
				if err != nil {
					t.Fatal(err)
				}
				var view struct {
					Status service.JobStatus `json:"status"`
					Error  string            `json:"error"`
				}
				err = json.NewDecoder(resp.Body).Decode(&view)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if view.Status.Terminal() {
					if view.Status != service.StatusSucceeded {
						t.Fatalf("job %s: %s (%s)", id, view.Status, view.Error)
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("job %s stuck", id)
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
	}

	// THE fleet-wide assertion: one execution across all three nodes.
	var executed int64
	for _, d := range daemons {
		executed += d.queue.Snapshot().Executed
	}
	if executed != 1 {
		t.Errorf("fleet executed %d times for one prompt, want exactly 1", executed)
	}

	// Session forwarding: the creating node mints an ID it owns, so a
	// turn posted anywhere else must relay to the creator.
	resp, err := http.Post(listeners[0].URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"model":"oracle","width":320,"height":180}`))
	if err != nil {
		t.Fatal(err)
	}
	var created service.SessionView
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || created.ID == "" {
		t.Fatalf("POST /v1/sessions = %d", resp.StatusCode)
	}
	owner, ok := daemons[0].cluster.Owner(created.ID)
	if !ok || !daemons[0].cluster.IsSelf(owner) {
		t.Fatalf("creating node does not own session %s (owner %v)", created.ID, owner)
	}

	turnBody, _ := json.Marshal(service.TurnRequest{Prompt: prompt})
	resp, err = http.Post(listeners[1].URL+"/v1/sessions/"+created.ID+"/turns",
		"application/json", bytes.NewReader(turnBody))
	if err != nil {
		t.Fatal(err)
	}
	var turn service.TurnView
	if err := json.NewDecoder(resp.Body).Decode(&turn); err != nil {
		t.Fatal(err)
	}
	forwardedBy := resp.Header.Get(service.ForwardedHeader)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST turn via non-owner = %d", resp.StatusCode)
	}
	if forwardedBy != "n1" {
		t.Errorf("turn response forwarded-by = %q, want n1", forwardedBy)
	}

	// The turn completes, observable from the third node.
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(listeners[2].URL + "/v1/sessions/" + created.ID + "/turns/" + turn.ID)
		if err != nil {
			t.Fatal(err)
		}
		var tv service.TurnView
		err = json.NewDecoder(resp.Body).Decode(&tv)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if tv.Status.Terminal() {
			if tv.Status != service.StatusSucceeded || !tv.Success {
				t.Fatalf("forwarded turn = %s (%s)", tv.Status, tv.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("forwarded turn never finished")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Cluster health is visible on every node's /metrics.
	resp, err = http.Get(listeners[2].URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metricsBody), "chatvis_cluster_peers_healthy 3") {
		t.Errorf("metrics missing healthy peer count:\n%s", metricsBody)
	}
}

// TestClusterTracePropagation is the cross-node tracing smoke
// (`make smoke-cluster`): it boots three daemons, submits one job to a
// node that does NOT own its content key (forcing a forward hop on a
// cold store), and asserts the fleet produced ONE trace — retrievable
// from the third node, which recorded none of it — containing the
// queue wait, an LLM call with token counts, at least one executed
// plan stage, and the cross-node forward, with spans recorded by both
// the entry and owner nodes.
func TestClusterTracePropagation(t *testing.T) {
	const n = 3
	listeners := make([]*httptest.Server, n)
	peerSpec := make([]string, n)
	for i := range listeners {
		listeners[i] = httptest.NewUnstartedServer(http.NotFoundHandler())
		peerSpec[i] = fmt.Sprintf("n%d=%s", i+1, listeners[i].Listener.Addr().String())
	}
	peers := strings.Join(peerSpec, ",")

	sharedStore := t.TempDir()
	daemons := make([]*daemon, n)
	for i := range daemons {
		d, err := buildDaemon(daemonConfig{
			dataDir:  t.TempDir(),
			outDir:   t.TempDir(),
			storeDir: sharedStore,
			workers:  2,
			nodeID:   fmt.Sprintf("n%d", i+1),
			peers:    peers,
		})
		if err != nil {
			t.Fatal(err)
		}
		daemons[i] = d
		listeners[i].Config.Handler = d.server.Handler()
		listeners[i].Start()
		d.cluster.Start()
	}
	t.Cleanup(func() {
		for i, d := range daemons {
			listeners[i].Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = d.queue.Shutdown(ctx)
			cancel()
			d.close()
		}
	})

	req := service.JobRequest{
		Prompt:         "Please generate a ParaView Python script for the following operations. Read in the file named ml-100.vtk. Generate an isosurface of the variable var0 at value 0.3100. Save a screenshot of the result in the filename iso.png. The rendered view and saved screenshot should be 320 x 180 pixels.",
		SessionRequest: service.SessionRequest{Model: "oracle", Width: 320, Height: 180},
	}
	// Enter through a node that does NOT own the job's content key, so
	// acceptance crosses the fleet; read the trace back from the third
	// node, which recorded no span at all.
	ownerPeer, ok := daemons[0].cluster.Owner(service.Key(req))
	if !ok {
		t.Fatal("no ring owner for job key")
	}
	entry, third := -1, -1
	for i, d := range daemons {
		switch d.cluster.Self().ID {
		case ownerPeer.ID:
		default:
			if entry < 0 {
				entry = i
			} else {
				third = i
			}
		}
	}
	if entry < 0 || third < 0 {
		t.Fatalf("could not pick entry/third nodes around owner %s", ownerPeer.ID)
	}

	body, _ := json.Marshal(req)
	resp, err := http.Post(listeners[entry].URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	traceID := resp.Header.Get("X-ChatVis-Trace")
	var sub struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if traceID == "" {
		t.Fatal("submit response missing X-ChatVis-Trace header")
	}

	// The job completes; its result carries the submit's trace ID.
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(listeners[entry].URL + "/v1/jobs/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		var view service.View
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if view.Status.Terminal() {
			if view.Status != service.StatusSucceeded {
				t.Fatalf("job %s = %s (%s)", sub.ID, view.Status, view.Error)
			}
			if view.TraceID != traceID {
				t.Errorf("job result trace_id = %q, want %q", view.TraceID, traceID)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck", sub.ID)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// One trace, fetched from the node that saw none of the request:
	// the fan-out merge stitches the entry node's forward hop and the
	// owner's execution into a single span list. Late spans (the
	// executor ends its span just after the status flips) get a few
	// retries.
	wanted := []string{"queue.wait", "job.execute", "cluster.forward"}
	var trace struct {
		TraceID string `json:"trace_id"`
		Spans   []struct {
			Name  string            `json:"name"`
			Node  string            `json:"node"`
			Attrs map[string]string `json:"attrs"`
		} `json:"spans"`
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(listeners[third].URL + "/v1/traces/" + traceID)
		if err != nil {
			t.Fatal(err)
		}
		trace.Spans = nil
		code := resp.StatusCode
		err = json.NewDecoder(resp.Body).Decode(&trace)
		resp.Body.Close()
		names := map[string]bool{}
		llmTokens, planStage := false, false
		if code == http.StatusOK && err == nil {
			for _, sp := range trace.Spans {
				names[sp.Name] = true
				if strings.HasPrefix(sp.Name, "llm.") {
					if _, ok := sp.Attrs["prompt_tokens"]; ok {
						llmTokens = true
					}
				}
				if strings.HasPrefix(sp.Name, "stage.") {
					planStage = true
				}
			}
		}
		complete := llmTokens && planStage
		for _, w := range wanted {
			complete = complete && names[w]
		}
		if complete {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s incomplete from node %s: status=%d err=%v spans=%v llmTokens=%v planStage=%v",
				traceID, daemons[third].cluster.Self().ID, code, err, names, llmTokens, planStage)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if trace.TraceID != traceID {
		t.Errorf("merged trace id = %q, want %q", trace.TraceID, traceID)
	}

	// Both sides of the forward hop recorded spans under the one ID.
	nodes := map[string]bool{}
	for _, sp := range trace.Spans {
		nodes[sp.Node] = true
	}
	entryID := daemons[entry].cluster.Self().ID
	if !nodes[entryID] || !nodes[ownerPeer.ID] {
		t.Errorf("trace spans span nodes %v, want both %s (entry) and %s (owner)",
			nodes, entryID, ownerPeer.ID)
	}
}
