package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chatvis/internal/eval"
	"chatvis/internal/par"
	"chatvis/internal/service"
)

// liveDaemon is a daemon from buildDaemon serving HTTP on loopback.
type liveDaemon struct {
	t   *testing.T
	d   *daemon
	srv *httptest.Server
}

func startDaemon(t *testing.T, cfg daemonConfig) *liveDaemon {
	t.Helper()
	d, err := buildDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &liveDaemon{t: t, d: d, srv: httptest.NewServer(d.server.Handler())}
}

// stop drains the queue and releases the daemon, as a TERM does.
func (l *liveDaemon) stop() {
	l.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.d.queue.Shutdown(ctx); err != nil {
		l.t.Fatalf("drain: %v", err)
	}
	l.srv.Close()
	l.d.close()
}

// call sends a JSON request and decodes a JSON response into out.
func (l *liveDaemon) call(method, path string, body, out any) int {
	l.t.Helper()
	var rd io.Reader
	if body != nil {
		b, _ := json.Marshal(body)
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, l.srv.URL+path, rd)
	if err != nil {
		l.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		l.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			l.t.Fatalf("%s %s: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

// job submits a request, polls it to success and returns its result and
// how the submission was answered.
func (l *liveDaemon) job(req service.JobRequest) (*service.Result, string) {
	l.t.Helper()
	var sub struct {
		service.View
		Submission string `json:"submission"`
	}
	l.call(http.MethodPost, "/v1/jobs", req, &sub)
	v := sub.View
	for deadline := time.Now().Add(60 * time.Second); !v.Status.Terminal(); {
		if time.Now().After(deadline) {
			l.t.Fatalf("job %s stuck in %s", v.ID, v.Status)
		}
		time.Sleep(5 * time.Millisecond)
		l.call(http.MethodGet, "/v1/jobs/"+v.ID, nil, &v)
	}
	if v.Status != service.StatusSucceeded || v.Result == nil {
		l.t.Fatalf("job %s = %s (%s)", v.ID, v.Status, v.Error)
	}
	return v.Result, sub.Submission
}

// turn submits a turn to a session and polls it to success.
func (l *liveDaemon) turn(session, prompt string) service.TurnView {
	l.t.Helper()
	var v service.TurnView
	l.call(http.MethodPost, "/v1/sessions/"+session+"/turns", service.TurnRequest{Prompt: prompt}, &v)
	for deadline := time.Now().Add(60 * time.Second); !v.Status.Terminal(); {
		if time.Now().After(deadline) {
			l.t.Fatalf("turn %s stuck in %s", v.ID, v.Status)
		}
		time.Sleep(5 * time.Millisecond)
		l.call(http.MethodGet, "/v1/sessions/"+session+"/turns/"+v.ID, nil, &v)
	}
	if v.Status != service.StatusSucceeded || !v.Success {
		l.t.Fatalf("turn %s = %s (%s)", v.ID, v.Status, v.Error)
	}
	return v
}

// metric reads one unlabeled sample off /metrics.
func (l *liveDaemon) metric(name string) string {
	l.t.Helper()
	resp, err := http.Get(l.srv.URL + "/metrics")
	if err != nil {
		l.t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	l.t.Fatalf("/metrics has no %s", name)
	return ""
}

func scenarioJob(t *testing.T, id, model string, unassisted bool) service.JobRequest {
	t.Helper()
	scn, ok := eval.ScenarioByID(id)
	if !ok {
		t.Fatalf("no scenario %s", id)
	}
	return service.JobRequest{
		Prompt:         scn.UserPrompt(320, 180),
		SessionRequest: service.SessionRequest{Model: model, Width: 320, Height: 180, Unassisted: unassisted},
	}
}

// TestArtifactsAreReproducible pins that one request gives one artifact:
// the artifact object holds no run-specific value, so its hash is a
// function of the request alone.
//   - The same jobs on fresh daemons give the same artifact hashes at
//     -compute-workers 1, 2, 4 and 8.
//   - A job re-executed after a restart (its result file removed, the
//     store kept) lands on its existing objects: chatvis_store_objects
//     does not move.
//   - A two-turn session gives the same per-turn artifact hashes with or
//     without a restart between the turns.
func TestArtifactsAreReproducible(t *testing.T) {
	dataDir := t.TempDir()
	defer par.SetWorkers(0)
	jobs := []service.JobRequest{
		scenarioJob(t, "iso", "gpt-4", false),
		scenarioJob(t, "sliceclip", "gpt-4", false),
		scenarioJob(t, "stream", "gpt-4", true),
	}

	var want []string
	for _, workers := range []int{1, 2, 4, 8} {
		l := startDaemon(t, daemonConfig{dataDir: dataDir, outDir: t.TempDir(), workers: 2, computeWorkers: workers})
		for i, req := range jobs {
			res, _ := l.job(req)
			if workers == 1 {
				want = append(want, res.ArtifactHash)
			} else if res.ArtifactHash != want[i] {
				t.Errorf("-compute-workers %d: job %d artifact %s, want %s as at 1 worker", workers, i, res.ArtifactHash, want[i])
			}
		}
		l.stop()
	}

	t.Run("job re-executed after restart", func(t *testing.T) {
		outDir := t.TempDir()
		l := startDaemon(t, daemonConfig{dataDir: dataDir, outDir: outDir, workers: 2})
		first, _ := l.job(jobs[0])
		objects, storeBytes := l.metric("chatvis_store_objects"), l.metric("chatvis_store_bytes")
		l.stop()
		if err := os.Remove(filepath.Join(outDir, "store", "results", first.Key+".json")); err != nil {
			t.Fatal(err)
		}

		l = startDaemon(t, daemonConfig{dataDir: dataDir, outDir: outDir, workers: 2})
		defer l.stop()
		again, submission := l.job(jobs[0])
		if submission != string(service.SubmissionNew) {
			t.Fatalf("resubmission without a result file was answered %q, want a new execution", submission)
		}
		if again.ArtifactHash != first.ArtifactHash || again.ScriptHash != first.ScriptHash {
			t.Errorf("re-execution stored artifact %s script %s, want %s %s",
				again.ArtifactHash, again.ScriptHash, first.ArtifactHash, first.ScriptHash)
		}
		if got := l.metric("chatvis_store_objects"); got != objects {
			t.Errorf("chatvis_store_objects = %s after the re-execution, want %s", got, objects)
		}
		if got := l.metric("chatvis_store_bytes"); got != storeBytes {
			t.Errorf("chatvis_store_bytes = %s after the re-execution, want %s", got, storeBytes)
		}
	})

	t.Run("session turns across a restart", func(t *testing.T) {
		prompts := []string{jobs[0].Prompt, "Raise the isovalue to 0.7."}
		newSession := func(l *liveDaemon) string {
			var s service.SessionView
			if code := l.call(http.MethodPost, "/v1/sessions", service.SessionRequest{Model: "gpt-4", Width: 320, Height: 180}, &s); code != http.StatusCreated {
				t.Fatalf("POST /v1/sessions = %d", code)
			}
			return s.ID
		}

		l := startDaemon(t, daemonConfig{dataDir: dataDir, outDir: t.TempDir(), workers: 2})
		sid := newSession(l)
		var straight []string
		for _, p := range prompts {
			straight = append(straight, l.turn(sid, p).ArtifactHash)
		}
		l.stop()

		outDir := t.TempDir()
		l = startDaemon(t, daemonConfig{dataDir: dataDir, outDir: outDir, workers: 2})
		sid = newSession(l)
		restarted := []string{l.turn(sid, prompts[0]).ArtifactHash}
		l.stop()
		l = startDaemon(t, daemonConfig{dataDir: dataDir, outDir: outDir, workers: 2})
		defer l.stop()
		restarted = append(restarted, l.turn(sid, prompts[1]).ArtifactHash)

		for i := range prompts {
			if restarted[i] != straight[i] {
				t.Errorf("turn %d: artifact %s after a restart, %s without", i+1, restarted[i], straight[i])
			}
		}
	})
}
