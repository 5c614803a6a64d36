package service

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chatvis/internal/chatvis"
	"chatvis/internal/cluster"
	"chatvis/internal/llm"
	"chatvis/internal/obs"
	"chatvis/internal/plan"
)

// The session-native serving surface: stateful conversational sessions
// over the chatvis.Session API, with turn coalescing keyed by
// (parent plan hash, intended-delta hash), SSE event streaming, and
// persistence in the artifact store so sessions survive restarts.
//
//	POST /v1/sessions               create a session
//	POST /v1/sessions/{id}/turns    submit a turn (async; coalesced)
//	GET  /v1/sessions               list sessions
//	GET  /v1/sessions/{id}          session state incl. turn views
//	GET  /v1/sessions/{id}/events   live stage/turn events as SSE

// SessionRequest configures a conversational session, the POST
// /v1/sessions body. The same knobs as a JobRequest, minus the prompt —
// prompts arrive per turn.
type SessionRequest struct {
	// Model names the LLM backend (default "gpt-4").
	Model string `json:"model,omitempty"`
	// Width, Height of the rendered view (default 480x270); informative —
	// turn prompts carry their own resolution text.
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`
	// MaxIterations bounds each turn's correction loop (default 5).
	MaxIterations int `json:"max_iterations,omitempty"`
	// FewShot truncates the example library (0 = full, negative = none).
	FewShot int `json:"few_shot,omitempty"`
	// NoRewrite skips the prompt-generation stage.
	NoRewrite bool `json:"no_rewrite,omitempty"`
	// Unassisted runs first turns as the bare model.
	Unassisted bool `json:"unassisted,omitempty"`
}

func (r SessionRequest) withDefaults() SessionRequest {
	if r.Model == "" {
		r.Model = "gpt-4"
	}
	if r.Width <= 0 || r.Height <= 0 {
		r.Width, r.Height = 480, 270
	}
	if r.MaxIterations <= 0 {
		r.MaxIterations = 5
	}
	return r
}

// TurnRequest is the POST /v1/sessions/{id}/turns body.
type TurnRequest struct {
	// Prompt is the turn utterance (required): a full request on the
	// first turn, a follow-up edit afterwards.
	Prompt string `json:"prompt"`
}

// Validate rejects empty turns.
func (r TurnRequest) Validate() error {
	if strings.TrimSpace(r.Prompt) == "" {
		return fmt.Errorf("service: turn prompt is required")
	}
	return nil
}

// turnKeyVersion tags the turn-coalescing hash layout.
const turnKeyVersion = "chatvis-turn-v1"

// TurnKey derives a turn's coalescing identity: the parent plan hash
// plus the intended-delta hash. Two submissions coalesce only when they
// edit the same session state with the same meaning — a reworded but
// identical edit shares the key; the same words against a different
// parent plan do not. First turns (no parent plan) reuse the job-level
// intended-plan derivation; utterances the edit grammar cannot read fall
// back to their raw text.
func TurnKey(parentPlanHash, utterance string) string {
	h := sha256.New()
	writeField := func(s string) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	writeField(turnKeyVersion)
	writeField(parentPlanHash)
	if parentPlanHash == "" {
		writeField(promptKeyField(utterance))
	} else if intent := llm.ParseEditIntent(utterance); !intent.Empty() {
		writeField("intent:" + intent.Key())
	} else {
		writeField("utterance:" + utterance)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TurnView is the JSON projection of one session turn.
type TurnView struct {
	ID     string    `json:"id"`
	Index  int       `json:"index"`
	Key    string    `json:"key"`
	Prompt string    `json:"prompt"`
	Status JobStatus `json:"status"`
	Error  string    `json:"error,omitempty"`
	// TraceID names the distributed trace of the submission that started
	// this turn ("" when the submitter was untraced).
	TraceID string `json:"trace_id,omitempty"`
	// Coalesced counts submissions beyond the first that mapped onto
	// this turn.
	Coalesced int `json:"coalesced,omitempty"`
	// Success mirrors the turn artifact's Success (a turn can complete
	// — status succeeded — with a failing script).
	Success bool `json:"success,omitempty"`
	// ParentPlanHash / PlanHash / DeltaSummary / ChangedStages are the
	// turn's provenance; ExecutionsDelta counts the pipeline stages the
	// session engine actually recomputed (the incremental observable).
	ParentPlanHash  string   `json:"parent_plan_hash,omitempty"`
	PlanHash        string   `json:"plan_hash,omitempty"`
	DeltaSummary    string   `json:"delta_summary,omitempty"`
	ChangedStages   []string `json:"changed_stages,omitempty"`
	ExecutionsDelta int64    `json:"executions_delta"`
	Incremental     bool     `json:"incremental,omitempty"`
	// Artifact hashes into the content-addressed store.
	ScriptHash       string   `json:"script_hash,omitempty"`
	ScreenshotHashes []string `json:"screenshot_hashes,omitempty"`
	ArtifactHash     string   `json:"artifact_hash,omitempty"`
	Iterations       int      `json:"iterations,omitempty"`

	Submitted time.Time  `json:"submitted_at"`
	Started   *time.Time `json:"started_at,omitempty"`
	Finished  *time.Time `json:"finished_at,omitempty"`
}

// turnRec pairs a TurnView with its completion signal.
type turnRec struct {
	view TurnView
	done chan struct{}
	// admission carries the submitter's trace and the queue.wait span,
	// which runs from submission until the turn starts executing.
	admission
}

// SessionRecord is the durable form of a session: what the store
// persists after every turn and what Restore rehydrates from.
type SessionRecord struct {
	ID       string          `json:"id"`
	Request  SessionRequest  `json:"request"`
	PlanHash string          `json:"plan_hash,omitempty"`
	Plan     json.RawMessage `json:"plan,omitempty"`
	Turns    []TurnView      `json:"turns"`
	Created  time.Time       `json:"created_at"`
	Updated  time.Time       `json:"updated_at"`
}

// SessionView is the GET /v1/sessions/{id} body.
type SessionView struct {
	ID       string          `json:"id"`
	Request  SessionRequest  `json:"request"`
	PlanHash string          `json:"plan_hash,omitempty"`
	Plan     json.RawMessage `json:"plan,omitempty"`
	Turns    []TurnView      `json:"turns"`
	Created  time.Time       `json:"created_at"`
}

// SvcSession is one tracked conversational session. Its turns run on the
// job queue one at a time, in submission order (edits are ordered by
// nature); submissions of the same (parent plan, intended delta)
// coalesce onto one turn.
type SvcSession struct {
	ID      string
	Req     SessionRequest
	Created time.Time

	m *Sessions

	mu       sync.Mutex
	sess     *chatvis.Session // lazily hydrated
	seedPlan json.RawMessage  // restored plan awaiting hydration
	planHash string
	planJSON json.RawMessage
	turns    []*turnRec
	byKey    map[string]*turnRec
	seq      int
	subs     map[chan []byte]struct{}
	// pending holds accepted turns not yet started, oldest first. active
	// is set while the session is on the queue's work channel or a
	// worker is running its turns; that worker drains pending.
	pending []*turnRec
	active  bool
}

// Sessions is the conversational-session registry. Turns execute on the
// job queue it is built over.
type Sessions struct {
	q       *Queue
	factory SessionFactory

	// ownsID, when set, steers new session IDs onto ones this node owns
	// on the shard ring, so follow-up turns route straight back here.
	ownsID func(string) bool

	mu       sync.Mutex
	sessions map[string]*SvcSession
	order    []string
	seq      int64

	turnsTotal atomic.Int64
	sseSubs    atomic.Int64
}

// WithOwnership sets the shard-ring ownership predicate used when
// minting session IDs; returns m for chaining.
func (m *Sessions) WithOwnership(owns func(id string) bool) *Sessions {
	m.ownsID = owns
	return m
}

// NewSessions builds the registry over the job queue, which runs the
// turns, writes their artifacts and WAL records to its store and WAL, and
// routes replayed turn records back to this registry.
func NewSessions(q *Queue, factory SessionFactory) *Sessions {
	m := &Sessions{
		q:        q,
		factory:  factory,
		sessions: map[string]*SvcSession{},
	}
	q.sessions = m
	return m
}

// Restore rehydrates persisted sessions from the store (called once at
// daemon start). Sessions come back cold: the chatvis session (and its
// engine) is rebuilt lazily on the next turn, seeded with the persisted
// plan.
func (m *Sessions) Restore() int {
	records := m.q.store.ListSessionRecords()
	m.mu.Lock()
	defer m.mu.Unlock()
	restored := 0
	for _, r := range records {
		if m.restoreRecordLocked(r) {
			restored++
		}
	}
	return restored
}

// restoreRecordLocked rehydrates one persisted session (cold). Callers
// hold m.mu; reports whether the record was new.
func (m *Sessions) restoreRecordLocked(r *SessionRecord) bool {
	if _, exists := m.sessions[r.ID]; exists {
		return false
	}
	s := &SvcSession{
		ID: r.ID, Req: r.Request, Created: r.Created, m: m,
		seedPlan: r.Plan, planHash: r.PlanHash, planJSON: r.Plan,
		byKey: map[string]*turnRec{},
		subs:  map[chan []byte]struct{}{},
	}
	for _, tv := range r.Turns {
		live := tv.Status == StatusQueued || tv.Status == StatusRunning
		if live {
			// The turn died with the process that owned it. Mark it
			// canceled and keep it OUT of the coalescing index, so a WAL
			// replay of the same prompt starts a fresh execution instead
			// of coalescing onto this dead record.
			tv.Status = StatusCanceled
			tv.Error = "interrupted by restart"
			if tv.Finished == nil {
				now := time.Now()
				tv.Finished = &now
			}
		}
		tr := &turnRec{view: tv, done: make(chan struct{})}
		close(tr.done)
		s.turns = append(s.turns, tr)
		if !live {
			s.byKey[tv.Key] = tr
		}
		if tv.Index > s.seq {
			s.seq = tv.Index
		}
	}
	m.sessions[r.ID] = s
	m.order = append(m.order, r.ID)
	// Keep new IDs past every restored one ("s-<n>" or "s-<n>-<salt>").
	var n int64
	if _, err := fmt.Sscanf(r.ID, "s-%d", &n); err == nil && n > m.seq {
		m.seq = n
	}
	return true
}

// GetOrRestore returns a session by id, rehydrating it from the store
// when it is not in memory. This is the rebalance path: when a node
// dies, the shard ring routes its sessions to the next owner, which
// picks the conversation up cold from the shared artifact store — the
// persisted plan seeds a fresh engine on the next turn.
func (m *Sessions) GetOrRestore(id string) (*SvcSession, bool) {
	if s, ok := m.Get(id); ok {
		return s, true
	}
	r, ok := m.q.store.GetSessionRecord(id)
	if !ok {
		return nil, false
	}
	m.mu.Lock()
	m.restoreRecordLocked(r)
	s, ok := m.sessions[id]
	m.mu.Unlock()
	return s, ok
}

// Create registers a new session.
func (m *Sessions) Create(req SessionRequest) (*SvcSession, error) {
	req = req.withDefaults()
	m.q.mu.Lock()
	closed := m.q.closed
	m.q.mu.Unlock()
	if closed {
		return nil, ErrQueueClosed
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	id := fmt.Sprintf("s-%d", m.seq)
	if m.ownsID != nil && !m.ownsID(id) {
		// Rejection-sample salted candidates until the shard ring routes
		// the ID back to this node, so follow-up turns land here without
		// a forwarding hop. With N nodes each try succeeds with
		// probability ~1/N; the cap is unreachable in practice.
		for salt := 1; salt <= 4096; salt++ {
			cand := fmt.Sprintf("s-%d-%d", m.seq, salt)
			if m.ownsID(cand) {
				id = cand
				break
			}
		}
	}
	s := &SvcSession{
		ID:      id,
		Req:     req,
		Created: time.Now(),
		m:       m,
		byKey:   map[string]*turnRec{},
		subs:    map[chan []byte]struct{}{},
	}
	m.sessions[s.ID] = s
	m.order = append(m.order, s.ID)
	_ = m.q.store.PutSessionRecord(s.recordLocked())
	return s, nil
}

// Get returns a session by id.
func (m *Sessions) Get(id string) (*SvcSession, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	return s, ok
}

// List returns every tracked session in creation order.
func (m *Sessions) List() []*SvcSession {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*SvcSession, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.sessions[id])
	}
	return out
}

// SessionsSnapshot is the /metrics projection.
type SessionsSnapshot struct {
	// Active counts hydrated sessions (live conversational state and a
	// warm engine in this process).
	Active int64
	// Tracked counts every session the daemon knows about, hydrated or
	// restored-cold.
	Tracked int64
	// Turns counts turn executions since daemon start.
	Turns int64
	// SSESubscribers counts currently connected event streams.
	SSESubscribers int64
}

// Snapshot returns the current session metrics.
func (m *Sessions) Snapshot() SessionsSnapshot {
	m.mu.Lock()
	active := int64(0)
	tracked := int64(len(m.sessions))
	for _, s := range m.sessions {
		s.mu.Lock()
		if s.sess != nil {
			active++
		}
		s.mu.Unlock()
	}
	m.mu.Unlock()
	return SessionsSnapshot{
		Active:         active,
		Tracked:        tracked,
		Turns:          m.turnsTotal.Load(),
		SSESubscribers: m.sseSubs.Load(),
	}
}

// SubmitTurn registers a turn with no caller context (WAL replay,
// tests); traced submissions go through SubmitTurnCtx.
func (s *SvcSession) SubmitTurn(req TurnRequest) (TurnView, Submission, error) {
	return s.SubmitTurnCtx(context.Background(), req)
}

// SubmitTurnCtx registers a turn: identical in-meaning submissions
// against the same parent plan coalesce onto the existing turn;
// otherwise the turn is admitted to the job queue, behind the session's
// in-flight turns. The context's trace identity is captured on the turn
// (its cancellation is not — an accepted turn outlives the request).
func (s *SvcSession) SubmitTurnCtx(ctx context.Context, req TurnRequest) (TurnView, Submission, error) {
	if err := req.Validate(); err != nil {
		return TurnView{}, "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	key := TurnKey(s.planHash, req.Prompt)
	if tr, ok := s.byKey[key]; ok {
		tr.view.Coalesced++
		return tr.view, SubmissionCoalesced, nil
	}
	tr := &turnRec{
		view: TurnView{
			ID:      fmt.Sprintf("turn-%d", s.seq+1),
			Index:   s.seq + 1,
			Key:     key,
			Prompt:  req.Prompt,
			TraceID: obs.TraceID(ctx),
			Status:  StatusQueued, Submitted: time.Now(),
		},
		done: make(chan struct{}),
	}
	// An idle session goes onto the work channel; a busy one's worker
	// picks the new turn up from s.pending when it gets there.
	var run func()
	if !s.active {
		run = s.runTurns
	}
	q := s.m.q
	q.mu.Lock() // lock order: s.mu, then q.mu
	err := q.admitLocked(ctx, &tr.admission, cluster.KindTurn, s.ID, tr.view.ID, key, req, run)
	q.mu.Unlock()
	if err != nil {
		return TurnView{}, "", err
	}
	s.active = true
	s.seq++
	s.turns = append(s.turns, tr)
	s.byKey[key] = tr
	s.pending = append(s.pending, tr)
	return tr.view, SubmissionNew, nil
}

// TurnDone returns the completion channel of a turn by id.
func (s *SvcSession) TurnDone(turnID string) (<-chan struct{}, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, tr := range s.turns {
		if tr.view.ID == turnID {
			return tr.done, true
		}
	}
	return nil, false
}

// runTurns is a session's work item on the queue: the worker runs the
// session's pending turns one at a time, in submission order, until none
// is left, so a turn waiting behind its predecessor holds no worker.
func (s *SvcSession) runTurns() {
	for tr := s.nextTurn(); tr != nil; tr = s.nextTurn() {
		s.runTurn(tr)
	}
}

// nextTurn pops the oldest pending turn, or marks the session idle when
// none is left.
func (s *SvcSession) nextTurn() *turnRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		s.active = false
		return nil
	}
	tr := s.pending[0]
	s.pending = s.pending[1:]
	return tr
}

// runTurn executes one turn on the queue's shared execution path.
func (s *SvcSession) runTurn(tr *turnRec) {
	q := s.m.q
	q.pickup(tr.admission)
	ctx, cancel := q.runContext(tr.traceCtx)
	defer cancel()
	id, prompt := tr.view.ID, tr.view.Prompt // fixed at submission
	ctx, span := obs.Start(ctx, "job.execute")
	span.SetAttr("session", s.ID)
	span.SetAttr("turn", id)
	defer span.End()

	sess, err := s.start(tr)
	var turn *chatvis.Turn
	res := &Result{}
	if err == nil {
		err = q.execute(ctx, cluster.KindTurn, s.ID, id, res, func(ctx context.Context) (*chatvis.Artifact, error) {
			t, err := sess.Turn(ctx, prompt)
			if err != nil {
				return nil, err
			}
			turn = t
			return t.Artifact, nil
		})
	}
	span.SetError(err)
	status, errMsg := q.outcome(ctx, err)
	s.finish(tr, sess, turn, res, status, errMsg)
}

// start marks a turn running and returns the session's chatvis session,
// building it on the first turn (seeded from the persisted plan after a
// restart). Only the worker running the session's turns touches s.sess
// outside s.mu, so the factory runs unlocked.
func (s *SvcSession) start(tr *turnRec) (*chatvis.Session, error) {
	s.mu.Lock()
	sess, seedPlan := s.sess, s.seedPlan
	s.mu.Unlock()
	if sess == nil {
		var seed *plan.Plan
		if len(seedPlan) > 0 {
			if p, err := plan.Decode(seedPlan); err == nil {
				seed = p
			}
		}
		var err error
		if sess, err = s.m.factory(s.Req, s.m.q.store, seed, s.broadcastEvent); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	s.sess = sess
	tr.view.Status = StatusRunning
	now := time.Now()
	tr.view.Started = &now
	s.mu.Unlock()
	return sess, nil
}

// finish publishes a turn's outcome. Its artifacts are already stored;
// the session record and the WAL's terminal record are written next,
// outside s.mu, and only then does the turn turn terminal for pollers.
func (s *SvcSession) finish(tr *turnRec, sess *chatvis.Session, turn *chatvis.Turn, res *Result, status JobStatus, errMsg string) {
	var planHash string
	var planJSON json.RawMessage
	if status == StatusSucceeded {
		planHash = sess.PlanHash()
		if p := sess.CurrentPlan(); p != nil {
			planJSON, _ = p.Encode()
		}
	}

	s.mu.Lock()
	v := tr.view
	v.Status, v.Error = status, errMsg
	now := time.Now()
	v.Finished = &now
	if turn != nil {
		art := turn.Artifact
		v.Success = art.Success
		v.ParentPlanHash = turn.ParentPlanHash
		v.PlanHash = art.PlanHash()
		v.DeltaSummary = turn.DeltaSummary
		v.ChangedStages = turn.ChangedStages
		v.ExecutionsDelta = turn.ExecutionsDelta
		v.Incremental = turn.Incremental
		v.Iterations = art.NumIterations()
	}
	if status == StatusSucceeded {
		v.ScriptHash = res.ScriptHash
		v.ScreenshotHashes = res.ScreenshotHashes
		v.ArtifactHash = res.ArtifactHash
	}
	rec := s.recordLocked()
	for i, t := range s.turns {
		if t == tr {
			rec.Turns[i] = v
		}
	}
	if status == StatusSucceeded {
		rec.PlanHash = planHash
		if planJSON != nil {
			rec.Plan = planJSON
		}
	}
	s.mu.Unlock()

	_ = s.m.q.store.PutSessionRecord(rec)
	s.m.q.retire(cluster.KindTurn, s.ID, v.ID, status, errMsg)
	s.m.turnsTotal.Add(1)

	s.mu.Lock()
	defer s.mu.Unlock()
	v.Coalesced = tr.view.Coalesced // submissions may have joined meanwhile
	tr.view = v
	s.planHash, s.planJSON = rec.PlanHash, rec.Plan
	close(tr.done)
	s.broadcastLocked(map[string]any{
		"type": "turn-stored", "turn": v.Index, "status": status,
		"plan_hash": v.PlanHash, "artifact_hash": v.ArtifactHash,
		"executions_delta": v.ExecutionsDelta,
		"trace_id":         v.TraceID,
	})
}

// recordLocked renders the durable session record. Callers hold s.mu.
func (s *SvcSession) recordLocked() *SessionRecord {
	r := &SessionRecord{
		ID: s.ID, Request: s.Req,
		PlanHash: s.planHash, Plan: s.planJSON,
		Created: s.Created, Updated: time.Now(),
	}
	for _, tr := range s.turns {
		r.Turns = append(r.Turns, tr.view)
	}
	return r
}

// View renders the session (turns included) for the HTTP API.
func (s *SvcSession) View() SessionView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := SessionView{
		ID: s.ID, Request: s.Req,
		PlanHash: s.planHash, Plan: s.planJSON,
		Created: s.Created,
	}
	for _, tr := range s.turns {
		v.Turns = append(v.Turns, tr.view)
	}
	return v
}

// TurnView returns one turn's view by id.
func (s *SvcSession) TurnView(turnID string) (TurnView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, tr := range s.turns {
		if tr.view.ID == turnID {
			return tr.view, true
		}
	}
	return TurnView{}, false
}

// Subscribe opens an SSE event channel; the returned cancel function
// unsubscribes. Slow consumers drop events rather than stalling turns.
func (s *SvcSession) Subscribe() (<-chan []byte, func()) {
	ch := make(chan []byte, 64)
	s.mu.Lock()
	s.subs[ch] = struct{}{}
	s.mu.Unlock()
	s.m.sseSubs.Add(1)
	return ch, func() {
		s.mu.Lock()
		if _, ok := s.subs[ch]; ok {
			delete(s.subs, ch)
			close(ch)
		}
		s.mu.Unlock()
		s.m.sseSubs.Add(-1)
	}
}

// broadcastEvent forwards chatvis session events to subscribers.
func (s *SvcSession) broadcastEvent(ev chatvis.Event) {
	s.broadcast(ev)
}

func (s *SvcSession) broadcast(payload any) {
	s.mu.Lock()
	s.broadcastLocked(payload)
	s.mu.Unlock()
}

// broadcastLocked fans a JSON event out to every subscriber. Callers
// hold s.mu.
func (s *SvcSession) broadcastLocked(payload any) {
	if len(s.subs) == 0 {
		return
	}
	blob, err := json.Marshal(payload)
	if err != nil {
		return
	}
	frame := []byte("data: " + string(blob) + "\n\n")
	for ch := range s.subs {
		select {
		case ch <- frame:
		default: // slow consumer: drop
		}
	}
}
