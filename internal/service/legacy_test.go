package service

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

	"chatvis/internal/chatvis"
	"chatvis/internal/llm"
)

// copyTree copies the regular files under src into dst, keeping their
// relative paths.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(dst, filepath.Dir(rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLegacyStoreStillServes opens a store written before artifacts
// stopped carrying stage durations and trace IDs: testdata/legacy-store
// holds one unassisted gpt-4 stream job as the daemon stored it then,
// with `duration_ns` and `trace.trace_id` in the artifact object and a
// copied `trace` in the result file. The artifact must still decode, and
// resubmitting the request must be answered from the old result without
// an execution.
func TestLegacyStoreStillServes(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "legacy-store"), dir)
	reqBody, err := os.ReadFile(filepath.Join(dir, "request.json"))
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := &stubPipeline{}
	q, err := NewQueue(QueueOptions{Workers: 1, Pipeline: p.run, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = q.Shutdown(ctx)
	})
	srv := httptest.NewServer(NewServer(q, store, &llm.Metrics{}).Handler())
	t.Cleanup(srv.Close)

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || sub.Submission != SubmissionStoreHit || sub.Result == nil {
		t.Fatalf("POST /v1/jobs = %d %+v, want a store hit", resp.StatusCode, sub)
	}
	if n := p.executions.Load(); n != 0 {
		t.Fatalf("a legacy store hit executed %d times", n)
	}
	res := sub.Result
	if res.Success || res.Iterations != 1 || res.ArtifactHash == "" || res.TraceID == "" {
		t.Errorf("legacy result read back as %+v", res)
	}

	resp, err = http.Get(srv.URL + "/v1/artifacts/" + res.ArtifactHash)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET legacy artifact = %d", resp.StatusCode)
	}
	if !strings.Contains(string(blob), `"duration_ns"`) || !strings.Contains(string(blob), `"trace_id"`) {
		t.Fatal("testdata artifact is not in the legacy layout")
	}
	art, err := chatvis.DecodeArtifact(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Trace.Stages) != 2 || art.Trace.Stages[0].Model != "gpt-4" || len(art.Iterations) != 1 ||
		len(art.Iterations[0].Errors) == 0 || art.FinalScript == "" {
		t.Errorf("legacy artifact decoded as %+v", art)
	}
	reencoded, err := chatvis.EncodeArtifact(art)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(reencoded, []byte("duration_ns")) || bytes.Contains(reencoded, []byte("trace_id")) {
		t.Error("a decoded legacy artifact re-encodes its durations or trace ID")
	}
}
