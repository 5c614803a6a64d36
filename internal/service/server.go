package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"chatvis/internal/cluster"
	"chatvis/internal/data"
	"chatvis/internal/eval"
	"chatvis/internal/llm"
	"chatvis/internal/obs"
	"chatvis/internal/par"
	"chatvis/internal/route"
)

// Server is the chatvisd HTTP API over a Queue and Store.
//
// Endpoints:
//
//	POST   /v1/jobs                   submit a one-shot request (async)
//	GET    /v1/jobs                   list jobs
//	GET    /v1/jobs/{id}              job status, result hashes and trace
//	DELETE /v1/jobs/{id}              cancel a job
//	POST   /v1/sessions               create a conversational session
//	GET    /v1/sessions               list sessions
//	GET    /v1/sessions/{id}          session state, plan and turn views
//	POST   /v1/sessions/{id}/turns    submit a turn (async; coalesced)
//	GET    /v1/sessions/{id}/events   live stage/turn events as SSE
//	GET    /v1/artifacts/{hash}       raw stored object (script / png / artifact)
//	GET    /v1/scenarios              registered evaluation scenarios
//	GET    /v1/models                 registered models, live profiles, route state
//	GET    /healthz                   liveness + queue depth
//	GET    /metrics                   Prometheus-style counters and histograms
type Server struct {
	queue *Queue
	store *Store
	// sessions serves the conversational endpoints; may be nil (the
	// endpoints then answer 503).
	sessions *Sessions
	// cluster, quotas and wal are the fleet-mode attachments; all may be
	// nil (single-node daemon).
	cluster *cluster.Cluster
	quotas  *cluster.Quotas
	wal     *cluster.WAL
	// tracer records distributed traces and serves /v1/traces; may be
	// nil (requests then run untraced).
	tracer *obs.Tracer
	// router is the measured model router; may be nil (every call then
	// serves from its configured model). profilesPath names the
	// calibration store behind it, for /v1/models provenance.
	router       *route.Router
	profilesPath string
	// logger receives structured access/lifecycle logs; may be nil
	// (slog.Default is used).
	logger *slog.Logger
	// metrics holds every /metrics family, each declared where its
	// subsystem attaches (NewServer and the With* methods).
	metrics *obs.Registry
	// buildVersion labels chatvis_build_info ("" reads the binary's
	// module version).
	buildVersion string
	// forwards counts requests relayed to their ring owner.
	forwards atomic.Int64
	started  time.Time
}

// NewServer builds a server over its subsystems and declares their
// metric families: the queue, the store, the compute substrate, the LLM
// metrics (when m is set) and the build identity.
func NewServer(q *Queue, s *Store, m *llm.Metrics) *Server {
	srv := &Server{queue: q, store: s, started: time.Now(), metrics: obs.NewRegistry()}
	reg := srv.metrics
	load := func(v *atomic.Int64) func() float64 { return func() float64 { return float64(v.Load()) } }
	reg.Value("chatvis_jobs_submitted_total", "Job submissions received.", obs.Counter, load(&q.m.submitted))
	reg.Value("chatvis_jobs_coalesced_total", "Submissions coalesced onto an in-flight job.", obs.Counter, load(&q.m.coalesced))
	reg.Value("chatvis_jobs_store_hits_total", "Submissions answered from the artifact store.", obs.Counter, load(&q.m.storeHits))
	reg.Value("chatvis_jobs_executed_total", "Pipeline executions started.", obs.Counter, load(&q.m.executed))
	reg.Value("chatvis_jobs_succeeded_total", "Jobs that finished successfully.", obs.Counter, load(&q.m.succeeded))
	reg.Value("chatvis_jobs_failed_total", "Jobs that failed.", obs.Counter, load(&q.m.failed))
	reg.Value("chatvis_jobs_canceled_total", "Jobs canceled before or during execution.", obs.Counter, load(&q.m.canceled))
	reg.Value("chatvis_queue_depth", "Jobs and session turns queued and not yet picked up.", obs.Gauge, load(&q.backlog))
	reg.Value("chatvis_jobs_running", "Jobs (not session turns) executing right now.", obs.Gauge, load(&q.m.running))
	reg.Histogram("chatvis_job_duration_seconds", "Pipeline execution latency of jobs and session turns.", q.latency)

	reg.Value("chatvis_store_objects", "Objects in the content-addressed store.", obs.Gauge, func() float64 { return float64(s.Stats().Objects) })
	reg.Value("chatvis_store_bytes", "Bytes stored across all objects.", obs.Gauge, func() float64 { return float64(s.Stats().Bytes) })
	reg.Value("chatvis_store_results", "Job results indexed by key.", obs.Gauge, func() float64 { return float64(s.Stats().Results) })

	reg.Value("chatvis_compute_workers", "Configured worker count of the parallel compute substrate.", obs.Gauge, func() float64 { return float64(par.Workers()) })
	reg.Value("chatvis_par_parallelism", "Effective sweep goroutine fan-out (workers clamped to GOMAXPROCS).", obs.Gauge, func() float64 { return float64(par.Parallelism()) })
	reg.Value("chatvis_par_sweeps_total", "Parallel sweeps executed by the compute substrate.", obs.Counter, func() float64 { return float64(par.Snapshot().Sweeps) })
	reg.Value("chatvis_par_chunks_total", "Chunks dispatched across all sweeps.", obs.Counter, func() float64 { return float64(par.Snapshot().Chunks) })
	reg.Value("chatvis_par_busy_seconds_total", "Chunk execution time summed over all sweep workers.", obs.Counter, func() float64 { return par.Snapshot().Busy.Seconds() })
	reg.Value("chatvis_par_imbalance_avg", "Mean per-sweep imbalance ratio (max/mean worker busy time) over multi-worker sweeps; 1.0 is balanced.", obs.Gauge, func() float64 { return par.Snapshot().AvgImbalance })

	if m != nil {
		reg.Value("chatvis_llm_calls_total", "LLM completions attempted.", obs.Counter, func() float64 { return float64(m.Snapshot().Calls) })
		reg.Value("chatvis_llm_errors_total", "LLM completions that errored.", obs.Counter, func() float64 { return float64(m.Snapshot().Errors) })
		reg.Value("chatvis_llm_cache_hits_total", "Completions served from the response cache.", obs.Counter, func() float64 { return float64(m.Snapshot().CacheHits) })
		reg.Value("chatvis_llm_prompt_tokens_total", "Prompt tokens consumed.", obs.Counter, func() float64 { return float64(m.Snapshot().PromptTokens) })
		reg.Value("chatvis_llm_completion_tokens_total", "Completion tokens produced.", obs.Counter, func() float64 { return float64(m.Snapshot().CompletionTokens) })
		reg.Value("chatvis_llm_latency_seconds_total", "Cumulative LLM call latency.", obs.Counter, func() float64 { return m.Snapshot().TotalLatency.Seconds() })
	}

	// Build identity, all facts in labels (value is always 1).
	reg.Labeled("chatvis_build_info", "Build and runtime identity of this daemon.", obs.Gauge, func() []obs.Sample {
		bi := obs.ReadBuildInfo(srv.buildVersion)
		node := ""
		if srv.cluster != nil {
			node = srv.cluster.Self().ID
		} else if srv.tracer != nil {
			node = srv.tracer.Node()
		}
		return []obs.Sample{{Labels: []string{"version", bi.Version, "go_version", bi.GoVersion, "node_id", node}, Value: 1}}
	})
	return srv
}

// WithDatasetCache attaches the shared dataset cache and declares its
// metric families; returns the server for chaining.
func (s *Server) WithDatasetCache(c *data.Cache) *Server {
	if c == nil {
		return s
	}
	reg := s.metrics
	reg.Value("chatvis_dataset_cache_entries", "Datasets held in the shared content-hash cache.", obs.Gauge, func() float64 { return float64(c.Stats().Entries) })
	reg.Value("chatvis_dataset_cache_bytes", "Approximate bytes of cached datasets.", obs.Gauge, func() float64 { return float64(c.Stats().Bytes) })
	reg.Value("chatvis_dataset_cache_capacity_bytes", "Configured dataset cache capacity.", obs.Gauge, func() float64 { return float64(c.Stats().MaxBytes) })
	reg.Value("chatvis_dataset_cache_hits_total", "Pipeline stages and render surfaces answered from the dataset cache.", obs.Counter, func() float64 { return float64(c.Stats().Hits) })
	reg.Value("chatvis_dataset_cache_misses_total", "Pipeline stages and render surfaces computed on a cache miss.", obs.Counter, func() float64 { return float64(c.Stats().Misses) })
	reg.Value("chatvis_dataset_cache_evictions_total", "Datasets evicted to stay under the byte bound.", obs.Counter, func() float64 { return float64(c.Stats().Evictions) })
	return s
}

// WithSessions attaches the conversational-session registry, enabling
// the /v1/sessions endpoints, and declares its metric families; returns
// the server for chaining.
func (s *Server) WithSessions(m *Sessions) *Server {
	s.sessions = m
	if m == nil {
		return s
	}
	reg := s.metrics
	reg.Value("chatvis_sessions_active", "Hydrated conversational sessions (live engine in this process).", obs.Gauge, func() float64 { return float64(m.Snapshot().Active) })
	reg.Value("chatvis_sessions_tracked", "Sessions known to the daemon, hydrated or restored cold.", obs.Gauge, func() float64 { return float64(m.Snapshot().Tracked) })
	reg.Value("chatvis_session_turns_total", "Conversational turns executed.", obs.Counter, func() float64 { return float64(m.Snapshot().Turns) })
	reg.Value("chatvis_sse_subscribers", "Connected session event streams.", obs.Gauge, func() float64 { return float64(m.Snapshot().SSESubscribers) })
	return s
}

// WithTracer attaches the node's tracer: Handler gains the tracing
// middleware and the /v1/traces endpoints, and /metrics the retained
// trace count; returns the server for chaining.
func (s *Server) WithTracer(t *obs.Tracer) *Server {
	s.tracer = t
	if t != nil {
		s.metrics.Value("chatvis_traces_retained", "Finished traces held in the retention ring.", obs.Gauge, func() float64 { return float64(t.Len()) })
	}
	return s
}

// WithRouter attaches the measured model router (and the path of the
// profile store it was compiled from): /v1/models gains the live route
// state and /metrics the chatvis_route_* families; returns the server
// for chaining.
func (s *Server) WithRouter(r *route.Router, profilesPath string) *Server {
	s.router = r
	s.profilesPath = profilesPath
	if r == nil {
		return s
	}
	reg := s.metrics
	reg.Value("chatvis_route_decisions_total", "LLM completions routed by measured profile.", obs.Counter, func() float64 { return float64(r.Snapshot().Decisions) })
	reg.Value("chatvis_route_escalations_total", "Routed completions served above the primary rung.", obs.Counter, func() float64 { return float64(r.Snapshot().Escalations) })
	reg.Value("chatvis_route_fallbacks_total", "Completions sent to the configured model (untagged or unprofiled).", obs.Counter, func() float64 { return float64(r.Snapshot().Fallbacks) })
	reg.Value("chatvis_route_profiles", "Measured model profiles compiled into routing ladders.", obs.Gauge, func() float64 {
		n := 0
		for _, v := range r.Routes() {
			n += len(v.Ladder)
		}
		return float64(n)
	})
	// Every (task, serving model) pair on the compiled ladders, zero-valued
	// until served, so the exposition is deterministic from the first
	// scrape.
	reg.Labeled("chatvis_route_task_decisions_total", "Routed completions per task per serving model.", obs.Counter, func() []obs.Sample {
		taskModel := r.Snapshot().TaskModel
		var out []obs.Sample
		for _, v := range r.Routes() {
			for _, p := range v.Ladder {
				out = append(out, obs.Sample{Labels: []string{"task", string(v.Task), "model", p.Model}, Value: float64(taskModel[v.Task][p.Model])})
			}
		}
		return out
	})
	return s
}

// WithLogger attaches the daemon's structured logger; returns the
// server for chaining.
func (s *Server) WithLogger(l *slog.Logger) *Server {
	s.logger = l
	return s
}

// WithBuildVersion sets the version label of chatvis_build_info;
// returns the server for chaining.
func (s *Server) WithBuildVersion(v string) *Server {
	s.buildVersion = v
	return s
}

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("POST /v1/sessions", s.handleCreateSession)
	mux.HandleFunc("GET /v1/sessions", s.handleListSessions)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleGetSession)
	mux.HandleFunc("POST /v1/sessions/{id}/turns", s.handleSubmitTurn)
	mux.HandleFunc("GET /v1/sessions/{id}/turns/{turn}", s.handleGetTurn)
	mux.HandleFunc("GET /v1/sessions/{id}/events", s.handleSessionEvents)
	mux.HandleFunc("GET /v1/artifacts/{hash}", s.handleArtifact)
	mux.HandleFunc("GET /v1/cluster/result/{key}", s.handleClusterResult)
	mux.HandleFunc("GET /v1/traces", s.handleListTraces)
	mux.HandleFunc("GET /v1/traces/{id}", s.handleGetTrace)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)

	// The observability front door: enrich the context (logger, tenant),
	// then the tracing middleware starts the server span and stamps the
	// trace header. Without a tracer, requests pass straight through.
	var h http.Handler = obs.Middleware(s.tracer, mux)
	if s.logger != nil || s.tracer != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ctx := r.Context()
			if s.logger != nil {
				ctx = obs.WithLogger(ctx, s.logger)
			}
			if t := strings.TrimSpace(r.Header.Get(TenantHeader)); t != "" {
				ctx = obs.WithTenant(ctx, t)
			}
			inner.ServeHTTP(w, r.WithContext(ctx))
		})
	}
	return h
}

// apiError is the JSON error body. TraceID names the request's
// distributed trace so a client can quote it when reporting a failure
// (it also rides the X-ChatVis-Trace response header).
type apiError struct {
	Error   string `json:"error"`
	TraceID string `json:"trace_id,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, r *http.Request, code int, format string, args ...any) {
	writeJSON(w, code, apiError{
		Error:   fmt.Sprintf(format, args...),
		TraceID: obs.TraceID(r.Context()),
	})
}

// writeSubmitError answers a rejected job or turn submission: 503 while
// the queue is full or draining, 400 for anything else.
func writeSubmitError(w http.ResponseWriter, r *http.Request, err error) {
	code := http.StatusBadRequest
	if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrQueueClosed) {
		code = http.StatusServiceUnavailable
	}
	writeError(w, r, code, "%v", err)
}

// submitResponse is the POST /v1/jobs body: the job view plus how the
// submission was satisfied.
type submitResponse struct {
	View
	// Submission is "new", "coalesced" or "store".
	Submission Submission `json:"submission"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The body is read raw (not streamed into the decoder) so a cluster
	// relay can replay the exact bytes to the ring owner.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "reading request body: %v", err)
		return
	}
	var req JobRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	// Reject unknown models before queueing so the client hears about a
	// typo now, not from a failed job later.
	if model := req.withDefaults().Model; model != "" {
		if _, err := llm.NewModel(model); err != nil {
			writeError(w, r, http.StatusBadRequest, "unknown model %q (have %s)",
				model, strings.Join(llm.ModelNames(), ", "))
			return
		}
	}
	release, ok := s.admitTenant(w, r)
	if !ok {
		return
	}
	// Jobs shard by content key: identical prompts submitted anywhere in
	// the fleet meet at one owner and coalesce to a single execution. A
	// failed relay falls back to local execution — the remote-coalescing
	// hook still dedupes against the owner before running.
	if peer, fwd := s.ownerPeer(r, Key(req)); fwd {
		if s.proxy(w, r, peer, body) {
			release()
			return
		}
	}
	job, outcome, err := s.queue.SubmitCtx(r.Context(), req)
	if err != nil {
		release()
		writeSubmitError(w, r, err)
		return
	}
	if outcome == SubmissionNew {
		// The tenant's inflight slot is held until the job finishes, so
		// MaxInflight bounds concurrent executions, not concurrent POSTs.
		go func() {
			<-job.Done()
			release()
		}()
	} else {
		release()
	}
	code := http.StatusAccepted
	if outcome == SubmissionStoreHit {
		code = http.StatusOK // already complete
	}
	writeJSON(w, code, submitResponse{View: job.Snapshot(), Submission: outcome})
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.queue.Jobs()
	views := make([]View, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.Snapshot())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		// Job IDs carry the accepting node's name; route the poll home.
		if peer, fwd := s.jobPeer(r, r.PathValue("id")); fwd && s.proxy(w, r, peer, nil) {
			return
		}
		writeError(w, r, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		if peer, fwd := s.jobPeer(r, r.PathValue("id")); fwd && s.proxy(w, r, peer, nil) {
			return
		}
		writeError(w, r, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusAccepted, job.Snapshot())
}

// requireSessions guards the conversational endpoints.
func (s *Server) requireSessions(w http.ResponseWriter, r *http.Request) *Sessions {
	if s.sessions == nil {
		writeError(w, r, http.StatusServiceUnavailable, "sessions are not enabled on this daemon")
		return nil
	}
	return s.sessions
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	m := s.requireSessions(w, r)
	if m == nil {
		return
	}
	var req SessionRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && err != io.EOF {
		writeError(w, r, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	if model := req.withDefaults().Model; model != "" {
		if _, err := llm.NewModel(model); err != nil {
			writeError(w, r, http.StatusBadRequest, "unknown model %q (have %s)",
				model, strings.Join(llm.ModelNames(), ", "))
			return
		}
	}
	sess, err := m.Create(req)
	if err != nil {
		writeError(w, r, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, sess.View())
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	m := s.requireSessions(w, r)
	if m == nil {
		return
	}
	sessions := m.List()
	views := make([]SessionView, 0, len(sessions))
	for _, sess := range sessions {
		v := sess.View()
		v.Plan = nil // keep the listing light; GET /v1/sessions/{id} inlines it
		views = append(views, v)
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": views})
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	m := s.requireSessions(w, r)
	if m == nil {
		return
	}
	// Sessions live on their ring owner; a failed relay falls through to
	// a cold restore from the shared store (the failover path).
	if peer, fwd := s.ownerPeer(r, r.PathValue("id")); fwd && s.proxy(w, r, peer, nil) {
		return
	}
	sess, ok := m.GetOrRestore(r.PathValue("id"))
	if !ok {
		writeError(w, r, http.StatusNotFound, "unknown session %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, sess.View())
}

// submitTurnResponse is the POST /v1/sessions/{id}/turns body.
type submitTurnResponse struct {
	TurnView
	Submission Submission `json:"submission"`
}

func (s *Server) handleSubmitTurn(w http.ResponseWriter, r *http.Request) {
	m := s.requireSessions(w, r)
	if m == nil {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "reading request body: %v", err)
		return
	}
	var req TurnRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	release, ok := s.admitTenant(w, r)
	if !ok {
		return
	}
	if peer, fwd := s.ownerPeer(r, r.PathValue("id")); fwd && s.proxy(w, r, peer, body) {
		release()
		return
	}
	sess, ok := m.GetOrRestore(r.PathValue("id"))
	if !ok {
		release()
		writeError(w, r, http.StatusNotFound, "unknown session %q", r.PathValue("id"))
		return
	}
	view, outcome, err := sess.SubmitTurnCtx(r.Context(), req)
	if err != nil {
		release()
		writeSubmitError(w, r, err)
		return
	}
	if done, found := sess.TurnDone(view.ID); outcome == SubmissionNew && found {
		go func() {
			<-done
			release()
		}()
	} else {
		release()
	}
	code := http.StatusAccepted
	if outcome == SubmissionCoalesced && view.Status.Terminal() {
		code = http.StatusOK // already complete: idempotent replay
	}
	writeJSON(w, code, submitTurnResponse{TurnView: view, Submission: outcome})
}

func (s *Server) handleGetTurn(w http.ResponseWriter, r *http.Request) {
	m := s.requireSessions(w, r)
	if m == nil {
		return
	}
	if peer, fwd := s.ownerPeer(r, r.PathValue("id")); fwd && s.proxy(w, r, peer, nil) {
		return
	}
	sess, ok := m.GetOrRestore(r.PathValue("id"))
	if !ok {
		writeError(w, r, http.StatusNotFound, "unknown session %q", r.PathValue("id"))
		return
	}
	view, ok := sess.TurnView(r.PathValue("turn"))
	if !ok {
		writeError(w, r, http.StatusNotFound, "unknown turn %q", r.PathValue("turn"))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleSessionEvents streams session events (turn lifecycle, per-stage
// progress, stored results) as server-sent events until the client
// disconnects.
func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	m := s.requireSessions(w, r)
	if m == nil {
		return
	}
	// SSE streams redirect rather than proxy: the client holds its
	// long-lived connection straight to the session's owner.
	if peer, fwd := s.ownerPeer(r, r.PathValue("id")); fwd {
		s.forwards.Add(1)
		http.Redirect(w, r, "http://"+peer.Addr+r.URL.RequestURI(), http.StatusTemporaryRedirect)
		return
	}
	sess, ok := m.GetOrRestore(r.PathValue("id"))
	if !ok {
		writeError(w, r, http.StatusNotFound, "unknown session %q", r.PathValue("id"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, r, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	ch, cancel := sess.Subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	// An initial snapshot event so late subscribers know where the
	// session stands.
	if blob, err := json.Marshal(map[string]any{
		"type": "snapshot", "session": sess.ID, "plan_hash": sess.View().PlanHash,
	}); err == nil {
		fmt.Fprintf(w, "data: %s\n\n", blob)
	}
	flusher.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case frame, ok := <-ch:
			if !ok {
				return
			}
			if _, err := w.Write(frame); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	content, info, err := s.store.Get(hash)
	if err != nil {
		writeError(w, r, http.StatusNotFound, "unknown artifact %q", hash)
		return
	}
	w.Header().Set("Content-Type", info.ContentType)
	w.Header().Set("Content-Length", strconv.FormatInt(info.Size, 10))
	// Content-addressed objects never change: cache forever.
	w.Header().Set("Cache-Control", "public, max-age=31536000, immutable")
	w.Header().Set("ETag", `"`+info.Hash+`"`)
	_, _ = w.Write(content)
}

// scenarioView is one GET /v1/scenarios entry.
type scenarioView struct {
	ID         string `json:"id"`
	Row        string `json:"row"`
	Figure     string `json:"figure"`
	Screenshot string `json:"screenshot"`
	// Prompt is the scenario's user prompt at the requested resolution
	// (?width=&height=, default 480x270) — ready to POST to /v1/jobs.
	Prompt string `json:"prompt"`
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	width, height := 480, 270
	if v, err := strconv.Atoi(r.URL.Query().Get("width")); err == nil && v > 0 {
		width = v
	}
	if v, err := strconv.Atoi(r.URL.Query().Get("height")); err == nil && v > 0 {
		height = v
	}
	scns := eval.Scenarios()
	views := make([]scenarioView, 0, len(scns))
	for _, scn := range scns {
		views = append(views, scenarioView{
			ID:         scn.ID,
			Row:        scn.Row,
			Figure:     scn.Figure,
			Screenshot: scn.Screenshot,
			Prompt:     scn.UserPrompt(width, height),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"scenarios": views})
}

// handleModels reports the registered model names and, when routing is
// on, the live per-task route state: measured ladders, bars, and served
// counts. With no router attached the endpoint still answers, with
// routing marked disabled, so clients can probe capability cheaply.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"models":  llm.ModelNames(),
		"routing": map[string]any{"enabled": false},
	}
	if s.router != nil {
		snap := s.router.Snapshot()
		body["routing"] = map[string]any{
			"enabled":       true,
			"profiles_path": s.profilesPath,
			"decisions":     snap.Decisions,
			"escalations":   snap.Escalations,
			"fallbacks":     snap.Fallbacks,
			"tasks":         s.router.Routes(),
		}
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	snap := s.queue.Snapshot()
	body := map[string]any{
		"status":         "ok",
		"uptime_seconds": int64(time.Since(s.started).Seconds()),
		"queue_depth":    snap.Depth,
		"running":        snap.Running,
	}
	// The cluster view hides behind Accept negotiation so existing
	// probes (and peer liveness checks) keep the small legacy body.
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		if s.cluster != nil {
			body["node"] = s.cluster.Self().ID
			body["ring"] = s.cluster.Health()
		}
		if s.wal != nil {
			body["wal_backlog"] = s.wal.Backlog()
		}
		if s.sessions != nil {
			body["sessions_tracked"] = s.sessions.Snapshot().Tracked
		}
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	openMetrics := strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text")
	if openMetrics {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	}
	_ = s.metrics.Write(w, openMetrics)
}
