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
// their bytes, plus a result index keyed by job key. Objects live on
// the filesystem (two-level fan-out directories, written atomically via
// rename); an in-memory index makes lookups and existence checks cheap.
// The store is safe for concurrent use and survives daemon restarts:
// NewStore reloads both indexes from disk.
type Store struct {
	dir string

	mu      sync.RWMutex
	objects map[string]ObjectInfo
	results map[string]*Result
	bytes   int64
}

// ObjectInfo describes one stored object.
type ObjectInfo struct {
	// Hash is the hex SHA-256 of the content.
	Hash string `json:"hash"`
	// Size in bytes.
	Size int64 `json:"size"`
	// ContentType is the MIME type recorded at Put time.
	ContentType string `json:"content_type"`
}

// objectsSubdir, resultsSubdir and sessionsSubdir are the on-disk layout
// roots.
const (
	objectsSubdir  = "objects"
	resultsSubdir  = "results"
	sessionsSubdir = "sessions"
)

// NewStore opens (creating if needed) a store rooted at dir and loads
// the indexes of any objects and results already on disk.
func NewStore(dir string) (*Store, error) {
	s := &Store{
		dir:     dir,
		objects: map[string]ObjectInfo{},
		results: map[string]*Result{},
	}
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

// load rebuilds the in-memory indexes from the filesystem.
func (s *Store) load() error {
	objRoot := filepath.Join(s.dir, objectsSubdir)
	err := filepath.Walk(objRoot, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		// Layout: objects/<hh>/<hash>.<type-tag>
		base := filepath.Base(path)
		hash, tag, _ := strings.Cut(base, ".")
		if !validHash(hash) {
			return nil
		}
		s.objects[hash] = ObjectInfo{
			Hash:        hash,
			Size:        info.Size(),
			ContentType: typeForTag(tag),
		}
		s.bytes += info.Size()
		return nil
	})
	if err != nil {
		return fmt.Errorf("service: loading object index: %w", err)
	}
	resRoot := filepath.Join(s.dir, resultsSubdir)
	entries, err := os.ReadDir(resRoot)
	if err != nil {
		return fmt.Errorf("service: loading result index: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(resRoot, e.Name()))
		if err != nil {
			continue // a torn write from a crashed daemon; skip it
		}
		var r Result
		if json.Unmarshal(b, &r) != nil || r.Key == "" {
			continue
		}
		s.results[r.Key] = &r
	}
	return nil
}

func validHash(h string) bool {
	if len(h) != sha256.Size*2 {
		return false
	}
	_, err := hex.DecodeString(h)
	return err == nil
}

// typeTags maps content types to the file-extension tag objects carry on
// disk, so the index can be rebuilt without a sidecar metadata file.
var typeTags = map[string]string{
	"text/x-python":    "py",
	"image/png":        "png",
	"application/json": "json",
}

func tagForType(ct string) string {
	if t, ok := typeTags[ct]; ok {
		return t
	}
	return "bin"
}

func typeForTag(tag string) string {
	for ct, t := range typeTags {
		if t == tag {
			return ct
		}
	}
	return "application/octet-stream"
}

// HashBytes returns the store's content address for a byte string.
func HashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func (s *Store) objectPath(hash, ct string) string {
	return filepath.Join(s.dir, objectsSubdir, hash[:2], hash+"."+tagForType(ct))
}

// Put stores content under its SHA-256 address and returns the hash.
// Storing the same bytes twice is a no-op (that is the point of content
// addressing): the existing object is reused whatever its content type.
func (s *Store) Put(content []byte, contentType string) (string, error) {
	hash := HashBytes(content)
	s.mu.RLock()
	_, exists := s.objects[hash]
	s.mu.RUnlock()
	if exists {
		return hash, nil
	}
	path := s.objectPath(hash, contentType)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", fmt.Errorf("service: storing object: %w", err)
	}
	// Write-then-rename keeps readers and concurrent writers of the
	// same content from observing a half-written object. The data is
	// synced before the rename, so it is durable before the object is
	// visible, and so before the WAL records the request that made it
	// done.
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return "", fmt.Errorf("service: storing object: %w", err)
	}
	_, err = tmp.Write(content)
	if err == nil {
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
		return "", fmt.Errorf("service: storing object: %w", err)
	}
	s.mu.Lock()
	if _, dup := s.objects[hash]; !dup {
		s.objects[hash] = ObjectInfo{Hash: hash, Size: int64(len(content)), ContentType: contentType}
		s.bytes += int64(len(content))
	}
	s.mu.Unlock()
	return hash, nil
}

// PutScreenshot makes the store the screenshot sink of every job and
// turn: each screenshot goes straight in, named by its object hash.
func (s *Store) PutScreenshot(_ string, png []byte) (string, error) {
	return s.Put(png, "image/png")
}

// Get returns the content and metadata for a hash. An index miss falls
// back to the filesystem: in cluster mode several nodes share one store
// directory, and objects written by a peer after this node loaded its
// index are still addressable. Content whose SHA-256 is not its hash (an
// object torn by a crash) is a miss: the index entry and the file are
// dropped, so the next Put of those bytes writes the object afresh.
func (s *Store) Get(hash string) ([]byte, ObjectInfo, error) {
	s.mu.RLock()
	info, ok := s.objects[hash]
	s.mu.RUnlock()
	if !ok {
		info, ok = s.indexFromDisk(hash)
	}
	if !ok {
		return nil, ObjectInfo{}, fmt.Errorf("service: unknown object %s", hash)
	}
	path := s.objectPath(hash, info.ContentType)
	b, err := os.ReadFile(path)
	if err == nil && HashBytes(b) != hash {
		s.mu.Lock()
		if _, indexed := s.objects[hash]; indexed {
			delete(s.objects, hash)
			s.bytes -= info.Size
		}
		s.mu.Unlock()
		// Best effort: a file left behind fails this check again.
		_ = os.Remove(path)
		err = fmt.Errorf("content does not match its hash")
	}
	if err != nil {
		return nil, ObjectInfo{}, fmt.Errorf("service: reading object %s: %w", hash, err)
	}
	return b, info, nil
}

// Has reports whether the hash is stored.
func (s *Store) Has(hash string) bool {
	s.mu.RLock()
	_, ok := s.objects[hash]
	s.mu.RUnlock()
	if !ok {
		_, ok = s.indexFromDisk(hash)
	}
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

// indexFromDisk looks a hash up on the filesystem (any known type tag)
// and adds it to the index on a hit. This is the shared-store path: a
// peer node may have written the object after our index loaded.
func (s *Store) indexFromDisk(hash string) (ObjectInfo, bool) {
	if !validHash(hash) {
		return ObjectInfo{}, false
	}
	for ct := range typeTags {
		fi, err := os.Stat(s.objectPath(hash, ct))
		if err != nil {
			continue
		}
		info := ObjectInfo{Hash: hash, Size: fi.Size(), ContentType: ct}
		s.mu.Lock()
		if _, dup := s.objects[hash]; !dup {
			s.objects[hash] = info
			s.bytes += fi.Size()
		}
		s.mu.Unlock()
		return info, true
	}
	return ObjectInfo{}, false
}

// PutResult indexes a finished pipeline's result under its job key and
// persists it so restarts keep serving it.
func (s *Store) PutResult(r *Result) error {
	if r == nil || r.Key == "" {
		return fmt.Errorf("service: result must carry a job key")
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("service: encoding result: %w", err)
	}
	path := filepath.Join(s.dir, resultsSubdir, r.Key+".json")
	if err := atomicWriteFile(path, b); err != nil {
		return fmt.Errorf("service: storing result: %w", err)
	}
	s.mu.Lock()
	s.results[r.Key] = r
	s.mu.Unlock()
	return nil
}

// GetResult returns the stored result for a job key, if any, as long as
// every object it names is still stored: a stale result is a miss, so
// the request executes again and its PutResult replaces the result.
// Like Get, an index miss re-checks the filesystem so nodes sharing one
// store directory see each other's results (fleet-wide store hits).
func (s *Store) GetResult(key string) (*Result, bool) {
	s.mu.RLock()
	r, ok := s.results[key]
	s.mu.RUnlock()
	if !ok && validHash(key) {
		var res Result
		b, err := os.ReadFile(filepath.Join(s.dir, resultsSubdir, key+".json"))
		if err == nil && json.Unmarshal(b, &res) == nil && res.Key == key {
			s.mu.Lock()
			s.results[key] = &res
			s.mu.Unlock()
			r, ok = &res, true
		}
	}
	if !ok || !s.hasResultObjects(r) {
		return nil, false
	}
	return r, true
}

// atomicWriteFile writes bytes via a temp file + rename so concurrent
// readers never observe a torn document.
func atomicWriteFile(path string, b []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
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
	if err := atomicWriteFile(path, b); err != nil {
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{Objects: len(s.objects), Bytes: s.bytes, Results: len(s.results)}
}
