package cluster

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func openWAL(t *testing.T, dir string) *WAL {
	t.Helper()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWALReplaysExactlyUnfinished(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir)
	if got := w.Recovered(); len(got) != 0 {
		t.Fatalf("fresh wal recovered %d records", len(got))
	}

	type req struct {
		Prompt string `json:"prompt"`
	}
	// j1 runs to completion, j2 starts but never finishes, j3 is
	// accepted but never picked up, t1 is a finished turn.
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.Accepted(KindJob, "", "j1", "key1", req{Prompt: "one"}))
	must(w.Accepted(KindJob, "", "j2", "key2", req{Prompt: "two"}))
	must(w.Accepted(KindTurn, "s-1", "turn-1", "tkey", req{Prompt: "edit"}))
	must(w.Started(KindJob, "", "j1"))
	must(w.Started(KindJob, "", "j2"))
	must(w.Completed(KindJob, "", "j1"))
	must(w.Accepted(KindJob, "", "j3", "key3", req{Prompt: "three"}))
	must(w.Started(KindTurn, "s-1", "turn-1"))
	must(w.Completed(KindTurn, "s-1", "turn-1"))
	if got := w.Backlog(); got != 2 {
		t.Fatalf("backlog = %d, want 2", got)
	}
	must(w.Close())

	// "Crash" and reopen: exactly j2 (started) and j3 (accepted) replay,
	// in accept order; completed work never does.
	w2 := openWAL(t, dir)
	recs := w2.Recovered()
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2: %+v", len(recs), recs)
	}
	if recs[0].ID != "j2" || recs[0].State != StateStarted {
		t.Errorf("recovered[0] = %s/%s, want j2/started", recs[0].ID, recs[0].State)
	}
	if recs[1].ID != "j3" || recs[1].State != StateAccepted {
		t.Errorf("recovered[1] = %s/%s, want j3/accepted", recs[1].ID, recs[1].State)
	}
	var r req
	if err := json.Unmarshal(recs[1].Request, &r); err != nil || r.Prompt != "three" {
		t.Errorf("recovered request = %q (%v), want prompt three", recs[1].Request, err)
	}

	// Retiring the replayed work (as the queue does after re-submitting)
	// empties the backlog; a third open recovers nothing — no duplicate
	// replay for delivered entries.
	must(w2.Superseded(recs[0], "j2-replayed"))
	must(w2.Completed(KindJob, "", "j3"))
	if got := w2.Backlog(); got != 0 {
		t.Fatalf("backlog after retirement = %d, want 0", got)
	}
	must(w2.Close())
	w3 := openWAL(t, dir)
	if got := w3.Recovered(); len(got) != 0 {
		t.Fatalf("third open recovered %d records, want 0: %+v", len(got), got)
	}
	w3.Close()
}

func TestWALTornTailIsDiscarded(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir)
	if err := w.Accepted(KindJob, "", "j1", "k1", map[string]string{"p": "a"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Accepted(KindJob, "", "j2", "k2", map[string]string{"p": "b"}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Tear the final record: chop a few bytes off the segment.
	path := filepath.Join(dir, walSegment)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := openWAL(t, dir)
	recs := w2.Recovered()
	if len(recs) != 1 || recs[0].ID != "j1" {
		t.Fatalf("torn tail: recovered %+v, want just j1", recs)
	}
	w2.Close()
}

func TestWALCorruptChecksumStopsReplay(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir)
	if err := w.Accepted(KindJob, "", "j1", "k1", nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Accepted(KindJob, "", "j2", "k2", nil); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Flip a payload byte in the middle of the file: the checksum fails
	// and replay keeps only the intact prefix.
	path := filepath.Join(dir, walSegment)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	w2 := openWAL(t, dir)
	if recs := w2.Recovered(); len(recs) > 1 {
		t.Fatalf("corrupt record replayed: %+v", recs)
	}
	w2.Close()
}

func TestWALCompactionPreservesPending(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir)
	// One long-lived pending job surrounded by enough finished work to
	// trigger in-place compaction.
	if err := w.Accepted(KindJob, "", "keepme", "key", map[string]string{"p": "keep"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < compactAfterTerminal+10; i++ {
		id := "j" + string(rune('a'+i%26)) + "-" + string(rune('0'+i%10)) + "-" + itoa(i)
		if err := w.Accepted(KindJob, "", id, "k", nil); err != nil {
			t.Fatal(err)
		}
		if err := w.Completed(KindJob, "", id); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Backlog(); got != 1 {
		t.Fatalf("backlog = %d, want 1", got)
	}
	// The segment must have been rewritten small: far below the raw
	// append volume.
	info, err := os.Stat(filepath.Join(dir, walSegment))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() > 64<<10 {
		t.Errorf("segment is %d bytes after compaction — terminal history not dropped", info.Size())
	}
	w.Close()

	w2 := openWAL(t, dir)
	recs := w2.Recovered()
	if len(recs) != 1 || recs[0].ID != "keepme" {
		t.Fatalf("compaction lost the pending entry: %+v", recs)
	}
	w2.Close()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestWALAppendAfterCloseFails(t *testing.T) {
	w := openWAL(t, t.TempDir())
	w.Close()
	if err := w.Accepted(KindJob, "", "j1", "k", nil); err == nil {
		t.Error("append after close must fail")
	}
}

// FuzzOpenWAL feeds arbitrary bytes to OpenWAL as a segment file. It
// must not panic; every recovered record must carry an ID; and since
// OpenWAL compacts the segment down to what it recovered, a second open
// must recover the same list — compaction is a fixpoint.
func FuzzOpenWAL(f *testing.F) {
	dir := f.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		f.Fatal(err)
	}
	type req struct {
		Prompt string `json:"prompt"`
	}
	for _, err := range []error{
		w.Accepted(KindJob, "", "j1", "key1", req{Prompt: "iso <0.5> & more"}),
		w.Accepted(KindTurn, "s-1", "turn-1", "tkey", req{Prompt: "edit"}),
		w.Started(KindTurn, "s-1", "turn-1"),
		w.Accepted(KindJob, "", "j2", "key2", req{Prompt: "done"}),
		w.Completed(KindJob, "", "j2"),
	} {
		if err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, walSegment))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-3]) // torn tail

	f.Fuzz(func(t *testing.T, segment []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walSegment), segment, 0o644); err != nil {
			t.Fatal(err)
		}
		w := openWAL(t, dir)
		first := w.Recovered()
		for i, rec := range first {
			if rec.ID == "" {
				t.Fatalf("recovered[%d] has an empty ID: %+v", i, rec)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		w = openWAL(t, dir)
		second := w.Recovered()
		w.Close()
		if len(first) != len(second) {
			t.Fatalf("reopen recovered %d records, first open %d", len(second), len(first))
		}
		for i := range first {
			if !sameRecord(t, first[i], second[i]) {
				t.Fatalf("recovered[%d] changed across reopen:\n%+v\n%+v", i, first[i], second[i])
			}
		}
	})
}

// sameRecord compares two records by value: times by instant, requests
// as decoded JSON (re-encoding compacts a request and escapes HTML).
func sameRecord(t *testing.T, a, b Record) bool {
	t.Helper()
	if a.Kind != b.Kind || a.State != b.State || a.ID != b.ID || a.Session != b.Session ||
		a.Key != b.Key || a.Error != b.Error || !a.Time.Equal(b.Time) {
		return false
	}
	if (a.Request == nil) != (b.Request == nil) {
		return false
	}
	return a.Request == nil || reflect.DeepEqual(decodeJSON(t, a.Request), decodeJSON(t, b.Request))
}

func decodeJSON(t *testing.T, raw json.RawMessage) any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("recovered request %q is not JSON: %v", raw, err)
	}
	return v
}
