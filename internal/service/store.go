package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Store is the content-addressed artifact store: opaque objects
// (scripts, screenshots, serialized artifacts) keyed by the SHA-256 of
// their bytes, plus results keyed by job key. Its directories are the
// only index: every lookup stats or reads the file it asks about, so an
// object deleted under a running daemon is a miss at once, and nodes
// sharing one store directory see each other's writes. Objects are
// written atomically via rename into two-level fan-out directories. The
// store is safe for concurrent use and survives daemon restarts.
type Store struct {
	dir string

	// mu guards the size ledger behind the chatvis_store_* gauges. It
	// is counted at open and then moved by this process's own writes
	// and torn-object removals; no lookup reads it.
	mu      sync.Mutex
	sizes   map[string]int64 // object hash -> bytes
	bytes   int64
	results int
}

// ObjectInfo describes one stored object.
type ObjectInfo struct {
	// Hash is the hex SHA-256 of the content.
	Hash string `json:"hash"`
	// Size in bytes.
	Size int64 `json:"size"`
	// ContentType is the MIME type named by the object's type tag.
	ContentType string `json:"content_type"`
}

// objectsSubdir, resultsSubdir and sessionsSubdir are the on-disk layout
// roots.
const (
	objectsSubdir  = "objects"
	resultsSubdir  = "results"
	sessionsSubdir = "sessions"
)

// NewStore opens (creating if needed) a store rooted at dir and counts
// the objects and results already on disk for the size gauges.
func NewStore(dir string) (*Store, error) {
	s := &Store{dir: dir, sizes: map[string]int64{}}
	for _, sub := range []string{objectsSubdir, resultsSubdir, sessionsSubdir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("service: creating store: %w", err)
		}
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// load counts the objects and result files on disk. Writes a peer
// makes to a shared store directory later enter the counts at the next
// open; lookups see them at once.
func (s *Store) load() error {
	objRoot := filepath.Join(s.dir, objectsSubdir)
	err := filepath.Walk(objRoot, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		// Layout: objects/<hh>/<hash>.<type-tag>
		hash, _, _ := strings.Cut(filepath.Base(path), ".")
		if validHash(hash) {
			s.count(hash, info.Size())
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("service: counting objects: %w", err)
	}
	entries, err := os.ReadDir(filepath.Join(s.dir, resultsSubdir))
	if err != nil {
		return fmt.Errorf("service: counting results: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			s.results++
		}
	}
	return nil
}

// count adds an object to the size ledger once, however many times its
// bytes are written.
func (s *Store) count(hash string, size int64) {
	s.mu.Lock()
	if _, dup := s.sizes[hash]; !dup {
		s.sizes[hash] = size
		s.bytes += size
	}
	s.mu.Unlock()
}

func validHash(h string) bool {
	if len(h) != sha256.Size*2 {
		return false
	}
	_, err := hex.DecodeString(h)
	return err == nil
}

// objectTypes maps content types to the file-extension tag objects
// carry on disk, so a lookup finds an object by its name alone, without
// a sidecar metadata file. Any other content type is stored as "bin".
var objectTypes = []struct{ tag, contentType string }{
	{"png", "image/png"},
	{"py", "text/x-python"},
	{"json", "application/json"},
	{"bin", "application/octet-stream"},
}

func tagForType(ct string) string {
	for _, t := range objectTypes {
		if t.contentType == ct {
			return t.tag
		}
	}
	return "bin"
}

// HashBytes returns the store's content address for a byte string.
func HashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func (s *Store) objectPath(hash, ct string) string {
	return filepath.Join(s.dir, objectsSubdir, hash[:2], hash+"."+tagForType(ct))
}

// locate returns the path and content type of the object stored under
// hash, trying each type tag in turn. The hash is validated before any
// path is built from it: hashes arrive over HTTP.
func (s *Store) locate(hash string) (path, contentType string, ok bool) {
	if !validHash(hash) {
		return "", "", false
	}
	for _, t := range objectTypes {
		path = s.objectPath(hash, t.contentType)
		if _, err := os.Stat(path); err == nil {
			return path, t.contentType, true
		}
	}
	return "", "", false
}

// Put stores content under its SHA-256 address and returns the hash.
// Storing the same bytes twice is a no-op (that is the point of content
// addressing): the existing object is reused whatever its content type.
func (s *Store) Put(content []byte, contentType string) (string, error) {
	hash := HashBytes(content)
	if s.Has(hash) {
		return hash, nil
	}
	path := s.objectPath(hash, contentType)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", fmt.Errorf("service: storing object: %w", err)
	}
	// Objects are synced before their rename, so an object is durable
	// before it is visible, and so before the WAL records the request
	// that made it done.
	if err := atomicWriteFile(path, content, true); err != nil {
		return "", fmt.Errorf("service: storing object: %w", err)
	}
	s.count(hash, int64(len(content)))
	return hash, nil
}

// PutScreenshot makes the store the screenshot sink of every job and
// turn: each screenshot goes straight in, named by its object hash.
func (s *Store) PutScreenshot(_ string, png []byte) (string, error) {
	return s.Put(png, "image/png")
}

// Get returns the content and metadata for a hash, read from its file.
// Content whose SHA-256 is not its hash (an object torn by a crash) is
// a miss: the file is removed, so the next Put of those bytes writes
// the object afresh.
func (s *Store) Get(hash string) ([]byte, ObjectInfo, error) {
	path, ct, ok := s.locate(hash)
	if !ok {
		return nil, ObjectInfo{}, fmt.Errorf("service: unknown object %s", hash)
	}
	b, err := os.ReadFile(path)
	if err == nil && HashBytes(b) != hash {
		s.mu.Lock()
		if size, counted := s.sizes[hash]; counted {
			delete(s.sizes, hash)
			s.bytes -= size
		}
		s.mu.Unlock()
		// Best effort: a file left behind fails this check again.
		_ = os.Remove(path)
		err = fmt.Errorf("content does not match its hash")
	}
	if err != nil {
		return nil, ObjectInfo{}, fmt.Errorf("service: reading object %s: %w", hash, err)
	}
	return b, ObjectInfo{Hash: hash, Size: int64(len(b)), ContentType: ct}, nil
}

// Has reports whether the hash is stored.
func (s *Store) Has(hash string) bool {
	_, _, ok := s.locate(hash)
	return ok
}

// hasResultObjects reports whether every object a result names — its
// script, its artifact and each screenshot — is still stored. A result
// missing any of them would answer with hashes that no longer Get.
func (s *Store) hasResultObjects(r *Result) bool {
	if !s.Has(r.ScriptHash) || !s.Has(r.ArtifactHash) {
		return false
	}
	for _, h := range r.ScreenshotHashes {
		if !s.Has(h) {
			return false
		}
	}
	return true
}

func (s *Store) resultPath(key string) string {
	return filepath.Join(s.dir, resultsSubdir, key+".json")
}

// PutResult persists a finished pipeline's result under its job key, so
// repeats and restarts are answered from it.
func (s *Store) PutResult(r *Result) error {
	if r == nil || !validHash(r.Key) {
		return fmt.Errorf("service: result must carry a job key")
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("service: encoding result: %w", err)
	}
	path := s.resultPath(r.Key)
	_, statErr := os.Stat(path)
	if err := atomicWriteFile(path, b, false); err != nil {
		return fmt.Errorf("service: storing result: %w", err)
	}
	if os.IsNotExist(statErr) {
		s.mu.Lock()
		s.results++
		s.mu.Unlock()
	}
	return nil
}

// GetResult reads the stored result for a job key, if any, as long as
// every object it names is still stored: a stale result is a miss, so
// the request executes again and its PutResult replaces the result.
func (s *Store) GetResult(key string) (*Result, bool) {
	if !validHash(key) {
		return nil, false
	}
	b, err := os.ReadFile(s.resultPath(key))
	if err != nil {
		return nil, false
	}
	var r Result
	if json.Unmarshal(b, &r) != nil || r.Key != key || !s.hasResultObjects(&r) {
		return nil, false
	}
	return &r, true
}

// atomicWriteFile writes bytes via a temp file + rename so concurrent
// readers and writers of the same path never observe a torn document;
// when durable, the data reaches disk before the rename.
func atomicWriteFile(path string, b []byte, durable bool) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(b)
	if err == nil && durable {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// PutSessionRecord persists a conversational session's durable state
// (request, turn summaries, current plan) so sessions survive daemon
// restarts. The record is small; artifacts stay in the object store.
func (s *Store) PutSessionRecord(r *SessionRecord) error {
	if r == nil || r.ID == "" {
		return fmt.Errorf("service: session record must carry an id")
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("service: encoding session record: %w", err)
	}
	path := filepath.Join(s.dir, sessionsSubdir, r.ID+".json")
	if err := atomicWriteFile(path, b, false); err != nil {
		return fmt.Errorf("service: storing session record: %w", err)
	}
	return nil
}

// GetSessionRecord loads one persisted session by id.
func (s *Store) GetSessionRecord(id string) (*SessionRecord, bool) {
	b, err := os.ReadFile(filepath.Join(s.dir, sessionsSubdir, id+".json"))
	if err != nil {
		return nil, false
	}
	var r SessionRecord
	if json.Unmarshal(b, &r) != nil || r.ID == "" {
		return nil, false
	}
	return &r, true
}

// ListSessionRecords loads every persisted session (restart recovery).
// Torn or unreadable records are skipped, like torn results.
func (s *Store) ListSessionRecords() []*SessionRecord {
	entries, err := os.ReadDir(filepath.Join(s.dir, sessionsSubdir))
	if err != nil {
		return nil
	}
	var out []*SessionRecord
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		if r, ok := s.GetSessionRecord(strings.TrimSuffix(e.Name(), ".json")); ok {
			out = append(out, r)
		}
	}
	return out
}

// Stats is a point-in-time store size summary for /metrics.
type Stats struct {
	Objects int
	Bytes   int64
	Results int
}

// Stats returns the current store sizes.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Objects: len(s.sizes), Bytes: s.bytes, Results: s.results}
}
