package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
)

// TestStoreObjectDeletedUnderOpenStoreIsAMiss pins that lookups answer
// from the store's directories: with the daemon's store still open, a
// result whose screenshot file is deleted stops being a store hit on
// every path at once — GetResult misses, the cluster probe answers 404,
// and a resubmission executes exactly once more.
func TestStoreObjectDeletedUnderOpenStoreIsAMiss(t *testing.T) {
	p := &stubPipeline{screenshot: true}
	q := newTestQueue(t, p, 1)
	srv := httptest.NewServer(NewServer(q, q.store, nil).Handler())
	defer srv.Close()

	req := JobRequest{Prompt: "screenshot deleted under a running daemon"}
	job, _, err := q.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, job)
	res := job.Result()
	if res == nil || len(res.ScreenshotHashes) != 1 {
		t.Fatalf("first run stored no screenshot: %+v", res)
	}
	if err := os.Remove(q.store.objectPath(res.ScreenshotHashes[0], "image/png")); err != nil {
		t.Fatal(err)
	}

	if q.store.Has(res.ScreenshotHashes[0]) {
		t.Error("Has reports a deleted screenshot as stored")
	}
	if _, ok := q.store.GetResult(res.Key); ok {
		t.Error("GetResult answered with a result whose screenshot is deleted")
	}
	resp, err := http.Get(srv.URL + "/v1/cluster/result/" + res.Key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/cluster/result over a deleted screenshot = %d, want 404", resp.StatusCode)
	}

	job, outcome, err := q.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != SubmissionNew {
		t.Fatalf("resubmission = %s, want %s", outcome, SubmissionNew)
	}
	waitJob(t, job)
	if got := p.executions.Load(); got != 2 {
		t.Fatalf("%d executions, want 2", got)
	}
	if _, outcome, err := q.Submit(req); err != nil || outcome != SubmissionStoreHit {
		t.Fatalf("submission after the re-execution = %s, %v; want %s", outcome, err, SubmissionStoreHit)
	}
	if got := p.executions.Load(); got != 2 {
		t.Errorf("the repaired result was not a store hit: %d executions", got)
	}
}

// TestStoreConcurrentPutsCountOnce pins the size ledger: concurrent
// Puts of the same bytes store one object and count it once.
func TestStoreConcurrentPutsCountOnce(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put([]byte("an object stored before"), "text/x-python"); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	content := bytes.Repeat([]byte("\x89PNG same bytes "), 256)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Put(content, "image/png"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	after := s.Stats()
	if after.Objects != before.Objects+1 || after.Bytes != before.Bytes+int64(len(content)) {
		t.Errorf("16 Puts of one object moved the gauges from %+v to %+v, want +1 object and +%d bytes",
			before, after, len(content))
	}
}

// TestStoreSharedDirectorySeesPeerWrites pins the shared-store
// deployment: a second Store over the same directory, as on a peer
// node, sees a result and its objects written after it opened, without
// reopening.
func TestStoreSharedDirectorySeesPeerWrites(t *testing.T) {
	dir := t.TempDir()
	peer, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	shot, err := s.Put([]byte("\x89PNG written by this node"), "image/png")
	if err != nil {
		t.Fatal(err)
	}
	res := storedResult(t, s, Key(JobRequest{Prompt: "shared store"}), shot)

	for _, h := range []string{res.ScriptHash, res.ArtifactHash, shot} {
		if !peer.Has(h) {
			t.Errorf("peer store does not have %s", h)
		}
		if _, _, err := peer.Get(h); err != nil {
			t.Errorf("peer store Get: %v", err)
		}
	}
	got, ok := peer.GetResult(res.Key)
	if !ok || got.ScriptHash != res.ScriptHash || len(got.ScreenshotHashes) != 1 {
		t.Errorf("peer store GetResult = %+v, %v", got, ok)
	}
}

// TestStoreRejectsInvalidHashesAndKeys pins that no path is built from
// a hash or key that is not hex SHA-256: both arrive over HTTP.
func TestStoreRejectsInvalidHashesAndKeys(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "../results/x", "zz" + HashBytes(nil)[2:], HashBytes(nil)[:63]} {
		if s.Has(bad) {
			t.Errorf("Has(%q) = true", bad)
		}
		if _, _, err := s.Get(bad); err == nil {
			t.Errorf("Get(%q) succeeded", bad)
		}
		if _, ok := s.GetResult(bad); ok {
			t.Errorf("GetResult(%q) hit", bad)
		}
		if err := s.PutResult(&Result{Key: bad}); err == nil {
			t.Errorf("PutResult with key %q succeeded", bad)
		}
	}
}
