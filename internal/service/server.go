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
	// llmMetrics is the shared middleware metrics the pipeline records
	// into; may be nil.
	llmMetrics *llm.Metrics
	// datasetCache is the shared compute-substrate cache surfaced at
	// /metrics; may be nil.
	datasetCache *data.Cache
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
	// buildVersion labels chatvis_build_info ("" omits the gauge).
	buildVersion string
	// forwards counts requests relayed to their ring owner.
	forwards atomic.Int64
	started  time.Time
}

// NewServer builds a server over its subsystems.
func NewServer(q *Queue, s *Store, m *llm.Metrics) *Server {
	return &Server{queue: q, store: s, llmMetrics: m, started: time.Now()}
}

// WithDatasetCache attaches the shared dataset cache so /metrics can
// report its gauges; returns the server for chaining.
func (s *Server) WithDatasetCache(c *data.Cache) *Server {
	s.datasetCache = c
	return s
}

// WithSessions attaches the conversational-session registry, enabling
// the /v1/sessions endpoints; returns the server for chaining.
func (s *Server) WithSessions(m *Sessions) *Server {
	s.sessions = m
	return s
}

// WithTracer attaches the node's tracer: Handler gains the tracing
// middleware and the /v1/traces endpoints; returns the server for
// chaining.
func (s *Server) WithTracer(t *obs.Tracer) *Server {
	s.tracer = t
	return s
}

// WithRouter attaches the measured model router (and the path of the
// profile store it was compiled from): /v1/models gains the live route
// state and /metrics the chatvis_route_* families; returns the server
// for chaining.
func (s *Server) WithRouter(r *route.Router, profilesPath string) *Server {
	s.router = r
	s.profilesPath = profilesPath
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
	var b strings.Builder
	emit := func(name, help string, value any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %v\n",
			name, help, name, metricType(name), name, value)
	}
	q := s.queue.Snapshot()
	emit("chatvis_jobs_submitted_total", "Job submissions received.", q.Submitted)
	emit("chatvis_jobs_coalesced_total", "Submissions coalesced onto an in-flight job.", q.Coalesced)
	emit("chatvis_jobs_store_hits_total", "Submissions answered from the artifact store.", q.StoreHits)
	emit("chatvis_jobs_executed_total", "Pipeline executions started.", q.Executed)
	emit("chatvis_jobs_succeeded_total", "Jobs that finished successfully.", q.Succeeded)
	emit("chatvis_jobs_failed_total", "Jobs that failed.", q.Failed)
	emit("chatvis_jobs_canceled_total", "Jobs canceled before or during execution.", q.Canceled)
	emit("chatvis_queue_depth", "Jobs and session turns queued and not yet picked up.", q.Depth)
	emit("chatvis_jobs_running", "Jobs (not session turns) executing right now.", q.Running)

	// Job duration histogram (Prometheus cumulative buckets). Under the
	// OpenMetrics exposition each bucket carries an exemplar linking it
	// to the trace ID of a recent observation that landed in it.
	openMetrics := strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text")
	exemplar := func(i int) string {
		if !openMetrics || len(q.BucketExemplars) <= i || q.BucketExemplars[i].TraceID == "" {
			return ""
		}
		ex := q.BucketExemplars[i]
		return fmt.Sprintf(" # {trace_id=\"%s\"} %g", ex.TraceID, ex.Value)
	}
	fmt.Fprintf(&b, "# HELP chatvis_job_duration_seconds Pipeline execution latency of jobs and session turns.\n")
	fmt.Fprintf(&b, "# TYPE chatvis_job_duration_seconds histogram\n")
	var cum int64
	for i, ub := range latencyBuckets {
		cum += q.BucketCounts[i]
		fmt.Fprintf(&b, "chatvis_job_duration_seconds_bucket{le=\"%g\"} %d%s\n", ub, cum, exemplar(i))
	}
	cum += q.BucketCounts[len(latencyBuckets)]
	fmt.Fprintf(&b, "chatvis_job_duration_seconds_bucket{le=\"+Inf\"} %d%s\n", cum, exemplar(len(latencyBuckets)))
	fmt.Fprintf(&b, "chatvis_job_duration_seconds_sum %g\n", q.LatencyTotal.Seconds())
	fmt.Fprintf(&b, "chatvis_job_duration_seconds_count %d\n", q.LatencyCount)

	st := s.store.Stats()
	emit("chatvis_store_objects", "Objects in the content-addressed store.", st.Objects)
	emit("chatvis_store_bytes", "Bytes stored across all objects.", st.Bytes)
	emit("chatvis_store_results", "Job results indexed by key.", st.Results)

	// Conversational sessions.
	if s.sessions != nil {
		ss := s.sessions.Snapshot()
		emit("chatvis_sessions_active", "Hydrated conversational sessions (live engine in this process).", ss.Active)
		emit("chatvis_sessions_tracked", "Sessions known to the daemon, hydrated or restored cold.", ss.Tracked)
		emit("chatvis_session_turns_total", "Conversational turns executed.", ss.Turns)
		emit("chatvis_sse_subscribers", "Connected session event streams.", ss.SSESubscribers)
	}

	// Cluster mode.
	if s.cluster != nil {
		emit("chatvis_cluster_peers_healthy", "Fleet members currently alive (self included).", s.cluster.HealthyCount())
		emit("chatvis_cluster_forwards_total", "Requests relayed to their shard-ring owner.", s.forwards.Load())
		emit("chatvis_cluster_remote_coalesce_hits_total", "Executions avoided via a peer's stored or in-flight result.", q.RemoteHits)
	}
	if s.wal != nil {
		emit("chatvis_wal_replayed_total", "Jobs and session turns re-submitted by the queue's one WAL replay after a restart.", q.Replayed)
		emit("chatvis_wal_backlog", "WAL entries accepted but not yet finished.", s.wal.Backlog())
	}
	if s.quotas.Enabled() {
		emit("chatvis_tenant_throttled_total", "Requests rejected by tenant quotas (429).", s.quotas.Throttled())
	}

	// Parallel compute substrate.
	emit("chatvis_compute_workers", "Configured worker count of the parallel compute substrate.", par.Workers())
	emit("chatvis_par_parallelism", "Effective sweep goroutine fan-out (workers clamped to GOMAXPROCS).", par.Parallelism())
	ps := par.Snapshot()
	emit("chatvis_par_sweeps_total", "Parallel sweeps executed by the compute substrate.", ps.Sweeps)
	emit("chatvis_par_chunks_total", "Chunks dispatched across all sweeps.", ps.Chunks)
	emit("chatvis_par_busy_seconds_total", "Chunk execution time summed over all sweep workers.", ps.Busy.Seconds())
	emit("chatvis_par_imbalance_avg", "Mean per-sweep imbalance ratio (max/mean worker busy time) over multi-worker sweeps; 1.0 is balanced.", ps.AvgImbalance)
	if s.datasetCache != nil {
		cs := s.datasetCache.Stats()
		emit("chatvis_dataset_cache_entries", "Datasets held in the shared content-hash cache.", cs.Entries)
		emit("chatvis_dataset_cache_bytes", "Approximate bytes of cached datasets.", cs.Bytes)
		emit("chatvis_dataset_cache_capacity_bytes", "Configured dataset cache capacity.", cs.MaxBytes)
		emit("chatvis_dataset_cache_hits_total", "Pipeline stages answered from the dataset cache.", cs.Hits)
		emit("chatvis_dataset_cache_misses_total", "Pipeline stages computed on a cache miss.", cs.Misses)
		emit("chatvis_dataset_cache_evictions_total", "Datasets evicted to stay under the byte bound.", cs.Evictions)
	}

	if s.llmMetrics != nil {
		m := s.llmMetrics.Snapshot()
		emit("chatvis_llm_calls_total", "LLM completions attempted.", m.Calls)
		emit("chatvis_llm_errors_total", "LLM completions that errored.", m.Errors)
		emit("chatvis_llm_cache_hits_total", "Completions served from the response cache.", m.CacheHits)
		emit("chatvis_llm_prompt_tokens_total", "Prompt tokens consumed.", m.PromptTokens)
		emit("chatvis_llm_completion_tokens_total", "Completion tokens produced.", m.CompletionTokens)
		emit("chatvis_llm_latency_seconds_total", "Cumulative LLM call latency.", m.TotalLatency.Seconds())
	}

	// Model routing. The labeled per-task family lists every (task,
	// serving model) pair on the compiled ladders, zero-valued until
	// served, so the exposition is deterministic from the first scrape.
	if s.router != nil {
		rs := s.router.Snapshot()
		emit("chatvis_route_decisions_total", "LLM completions routed by measured profile.", rs.Decisions)
		emit("chatvis_route_escalations_total", "Routed completions served above the primary rung.", rs.Escalations)
		emit("chatvis_route_fallbacks_total", "Completions sent to the configured model (untagged or unprofiled).", rs.Fallbacks)
		routes := s.router.Routes()
		var ladderEntries int
		for _, v := range routes {
			ladderEntries += len(v.Ladder)
		}
		emit("chatvis_route_profiles", "Measured model profiles compiled into routing ladders.", ladderEntries)
		fmt.Fprintf(&b, "# HELP chatvis_route_task_decisions_total Routed completions per task per serving model.\n")
		fmt.Fprintf(&b, "# TYPE chatvis_route_task_decisions_total counter\n")
		for _, v := range routes {
			for _, p := range v.Ladder {
				fmt.Fprintf(&b, "chatvis_route_task_decisions_total{task=%q,model=%q} %d\n",
					string(v.Task), p.Model, rs.TaskModel[v.Task][p.Model])
			}
		}
	}

	// Tracing subsystem.
	if s.tracer != nil {
		emit("chatvis_traces_retained", "Finished traces held in the retention ring.", s.tracer.Len())
	}

	// Go runtime.
	rs := obs.ReadRuntimeStats()
	emit("chatvis_go_goroutines", "Live goroutines.", rs.Goroutines)
	emit("chatvis_go_heap_alloc_bytes", "Heap bytes allocated and in use.", rs.HeapAllocBytes)
	emit("chatvis_go_heap_sys_bytes", "Heap bytes obtained from the OS.", rs.HeapSysBytes)
	emit("chatvis_go_heap_objects", "Live heap objects.", rs.HeapObjects)
	emit("chatvis_go_gc_cycles_total", "Completed GC cycles.", rs.GCCycles)
	emit("chatvis_go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause.", float64(rs.GCPauseNsTotal)/1e9)
	emit("chatvis_go_next_gc_bytes", "Heap size that triggers the next GC cycle.", rs.NextGCBytes)

	// Build identity, all facts in labels (value is always 1).
	bi := obs.ReadBuildInfo(s.buildVersion)
	node := ""
	if s.cluster != nil {
		node = s.cluster.Self().ID
	} else if s.tracer != nil {
		node = s.tracer.Node()
	}
	fmt.Fprintf(&b, "# HELP chatvis_build_info Build and runtime identity of this daemon.\n")
	fmt.Fprintf(&b, "# TYPE chatvis_build_info gauge\n")
	fmt.Fprintf(&b, "chatvis_build_info{version=%q,go_version=%q,node_id=%q} 1\n",
		bi.Version, bi.GoVersion, node)

	if openMetrics {
		fmt.Fprintf(&b, "# EOF\n")
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	}
	_, _ = w.Write([]byte(b.String()))
}

// metricType classifies a metric name for the TYPE line.
func metricType(name string) string {
	if strings.HasSuffix(name, "_total") {
		return "counter"
	}
	return "gauge"
}
