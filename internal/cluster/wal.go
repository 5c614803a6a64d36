package cluster

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The write-ahead log extends the artifact store's restart-surviving
// property to in-flight work: every accepted job or session turn is
// appended (and fsynced) before it is enqueued, a terminal record
// follows when the work finishes, and on startup the unfinished suffix
// is replayed into the queue so a crash loses no accepted work.
//
// On-disk format, one segment file ("wal.log"), records back to back:
//
//	uint32  payload length (big endian)
//	uint32  CRC-32 (IEEE) of the payload
//	[]byte  payload: one JSON-encoded Record
//
// A torn tail (crash mid-append) fails the length or checksum read and
// is discarded; everything before it replays. Completed entries are
// dropped when the segment is compacted — at open, and whenever enough
// terminal records have accumulated during normal operation.

// RecordKind distinguishes one-shot jobs from session turns.
type RecordKind string

// Record kinds.
const (
	KindJob  RecordKind = "job"
	KindTurn RecordKind = "turn"
)

// RecordState is one WAL lifecycle transition.
type RecordState string

// Record states. Accepted entries without a matching terminal entry
// are replayed after a crash; Completed and Failed are terminal. Any
// other state (such as the "started" records older builds wrote) is
// ignored on replay.
const (
	StateAccepted  RecordState = "accepted"
	StateCompleted RecordState = "completed"
	StateFailed    RecordState = "failed"
)

// Record is one WAL entry. Accepted records carry the full request so
// replay can re-submit without any other state; transition records
// carry just the identity.
type Record struct {
	Kind  RecordKind  `json:"kind"`
	State RecordState `json:"state"`
	// ID is the job ID (KindJob) or turn ID (KindTurn).
	ID string `json:"id"`
	// Session scopes turn IDs (turn IDs repeat across sessions).
	Session string `json:"session,omitempty"`
	// Key is the coalescing key the work was accepted under.
	Key string `json:"key,omitempty"`
	// Request is the accepted submission body (JSON), replayed verbatim.
	Request json.RawMessage `json:"request,omitempty"`
	Error   string          `json:"error,omitempty"`
	Time    time.Time       `json:"time"`
}

// walIdentity scopes pending-entry bookkeeping: turn IDs are only
// unique within a session.
func walIdentity(kind RecordKind, session, id string) string {
	return string(kind) + "\x00" + session + "\x00" + id
}

// WAL is a per-node durable log of accepted work. All methods are safe
// for concurrent use. Appends fsync before returning, so an accepted
// submission acknowledged to a client survives power loss.
type WAL struct {
	dir  string
	path string

	mu        sync.Mutex
	f         *os.File
	closed    bool
	pending   map[string]Record // accepted records, by identity
	order     []string          // pending identities in accept order
	recovered []Record
	terminal  int // terminal records in the current segment
}

// walSegment is the segment file name inside the WAL directory.
const walSegment = "wal.log"

// compactAfterTerminal triggers segment compaction once this many
// terminal records have accumulated; pending records are rewritten into
// a fresh segment and history is dropped.
const compactAfterTerminal = 512

// OpenWAL opens (creating if needed) the log under dir, replays the
// existing segment, and compacts it down to the unfinished entries.
// Recovered() then lists exactly the accepted-but-unfinished records a
// crash left behind, in accept order.
func OpenWAL(dir string) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: creating wal dir: %w", err)
	}
	w := &WAL{
		dir:     dir,
		path:    filepath.Join(dir, walSegment),
		pending: map[string]Record{},
	}
	if err := w.replay(); err != nil {
		return nil, err
	}
	for _, id := range w.order {
		w.recovered = append(w.recovered, w.pending[id])
	}
	// Rewrite the segment to just the unfinished entries, dropping the
	// completed history a long-lived node accumulates.
	if err := w.compactLocked(); err != nil {
		return nil, err
	}
	return w, nil
}

// replay reads the segment, building the pending table. A short or
// corrupt tail ends the replay (torn final append from a crash).
func (w *WAL) replay() error {
	f, err := os.Open(w.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("cluster: opening wal: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	for {
		var header [8]byte
		if _, err := io.ReadFull(r, header[:]); err != nil {
			return nil // clean EOF or torn header: stop
		}
		n := binary.BigEndian.Uint32(header[:4])
		sum := binary.BigEndian.Uint32(header[4:])
		if n == 0 || n > 1<<20 {
			return nil // implausible frame: torn tail
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return nil
		}
		var rec Record
		if json.Unmarshal(payload, &rec) != nil || rec.ID == "" {
			continue // valid frame, bad record: skip it
		}
		w.applyLocked(rec)
	}
}

// applyLocked folds one record into the pending table.
func (w *WAL) applyLocked(rec Record) {
	id := walIdentity(rec.Kind, rec.Session, rec.ID)
	switch rec.State {
	case StateAccepted:
		if _, dup := w.pending[id]; !dup {
			w.pending[id] = rec
			w.order = append(w.order, id)
		}
	case StateCompleted, StateFailed:
		if _, ok := w.pending[id]; ok {
			delete(w.pending, id)
			for i, o := range w.order {
				if o == id {
					w.order = append(w.order[:i], w.order[i+1:]...)
					break
				}
			}
		}
	}
}

// Recovered returns the unfinished records found at open, in accept
// order — what the queue replays at daemon start.
func (w *WAL) Recovered() []Record {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Record, len(w.recovered))
	copy(out, w.recovered)
	return out
}

// Backlog counts entries accepted but not yet finished.
func (w *WAL) Backlog() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.pending)
}

// encode frames one record.
func encode(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(buf[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[8:], payload)
	return buf, nil
}

// append writes one record durably and folds it into the pending table.
func (w *WAL) append(rec Record) error {
	rec.Time = time.Now()
	buf, err := encode(rec)
	if err != nil {
		return fmt.Errorf("cluster: encoding wal record: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("cluster: wal is closed")
	}
	if w.f == nil {
		if err := w.openSegmentLocked(); err != nil {
			return err
		}
	}
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("cluster: appending wal record: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("cluster: syncing wal: %w", err)
	}
	w.applyLocked(rec)
	if rec.State == StateCompleted || rec.State == StateFailed {
		w.terminal++
		if w.terminal >= compactAfterTerminal {
			return w.compactLocked()
		}
	}
	return nil
}

// openSegmentLocked opens the segment for appending.
func (w *WAL) openSegmentLocked() error {
	f, err := os.OpenFile(w.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("cluster: opening wal segment: %w", err)
	}
	w.f = f
	return nil
}

// compactLocked rewrites the segment with only the pending entries'
// accepted records, dropping terminal history. Callers hold w.mu.
func (w *WAL) compactLocked() error {
	tmp, err := os.CreateTemp(w.dir, ".wal-*")
	if err != nil {
		return fmt.Errorf("cluster: compacting wal: %w", err)
	}
	for _, id := range w.order {
		buf, err := encode(w.pending[id])
		if err != nil {
			continue
		}
		if _, err := tmp.Write(buf); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("cluster: compacting wal: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("cluster: compacting wal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cluster: compacting wal: %w", err)
	}
	if err := os.Rename(tmp.Name(), w.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cluster: compacting wal: %w", err)
	}
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	w.terminal = 0
	return w.openSegmentLocked()
}

// Accepted logs a new piece of work durably. It must be called before
// the work is enqueued: the ack a client receives is only honest once
// the record has hit disk.
func (w *WAL) Accepted(kind RecordKind, session, id, key string, request any) error {
	blob, err := json.Marshal(request)
	if err != nil {
		return fmt.Errorf("cluster: encoding wal request: %w", err)
	}
	return w.append(Record{Kind: kind, State: StateAccepted, ID: id, Session: session, Key: key, Request: blob})
}

// Completed marks work delivered; it will never replay.
func (w *WAL) Completed(kind RecordKind, session, id string) error {
	return w.append(Record{Kind: kind, State: StateCompleted, ID: id, Session: session})
}

// Failed marks work terminally failed; it will never replay.
func (w *WAL) Failed(kind RecordKind, session, id, msg string) error {
	return w.append(Record{Kind: kind, State: StateFailed, ID: id, Session: session, Error: msg})
}

// Superseded retires a recovered record after its work has been
// re-submitted under a new ID. If the process crashes between the
// re-submission's Accepted record and this call, the next replay
// re-submits both — and the queue's key coalescing collapses them back
// to one execution, so the duplicate is harmless.
func (w *WAL) Superseded(old Record, newID string) error {
	return w.append(Record{
		Kind: old.Kind, State: StateCompleted, ID: old.ID, Session: old.Session,
		Error: "superseded by " + newID,
	})
}

// Sync forces the segment to disk. Appends already sync individually;
// Sync exists for drain paths that want an explicit final barrier.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.f == nil {
		return nil
	}
	return w.f.Sync()
}

// Close syncs and closes the segment; later appends fail. Tests use it
// to simulate a crash point — nothing after Close reaches disk.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}
