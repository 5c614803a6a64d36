package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"chatvis/internal/chatvis"
	"chatvis/internal/cluster"
	"chatvis/internal/obs"
	"chatvis/internal/pvsim"
)

// PipelineFunc runs one ChatVis pipeline for a request and returns the
// session artifact. The context carries per-job cancellation (client
// cancel, daemon shutdown); shots is where the run's screenshots go, and
// the artifact's Screenshots are the references it returned.
type PipelineFunc func(ctx context.Context, req JobRequest, shots pvsim.ScreenshotSink) (*chatvis.Artifact, error)

// QueueOptions configures a Queue.
type QueueOptions struct {
	// Workers is the pipeline concurrency, shared by jobs and session
	// turns (default 2).
	Workers int
	// Capacity bounds the backlog of queued jobs and turns; submissions
	// beyond it get ErrQueueFull (default 256).
	Capacity int
	// Pipeline executes jobs (required).
	Pipeline PipelineFunc
	// Store receives finished results and serves repeat submissions
	// (required).
	Store *Store
	// RetainJobs bounds the in-memory job records (default 4096):
	// beyond it, the oldest terminal jobs are evicted so daemon memory
	// stays flat under sustained traffic. Evicted job IDs 404 on
	// GET /v1/jobs/{id}; their results remain addressable through the
	// store by resubmitting the request.
	RetainJobs int
	// WAL, when set, makes accepted work durable: every new submission
	// is appended (and fsynced) before it is enqueued, lifecycle
	// transitions follow, and ReplayWAL re-submits whatever a crash
	// left unfinished.
	WAL *cluster.WAL
	// RemoteLookup, when set, is consulted just before a job executes:
	// in cluster mode it asks the shard-ring owner of the job key for an
	// in-flight or stored result, collapsing identical requests
	// fleet-wide instead of per process. A hit finishes the job without
	// running the pipeline.
	RemoteLookup func(ctx context.Context, key string) (*Result, bool)
	// JobIDPrefix namespaces job IDs (default "job"); cluster mode uses
	// "job-<nodeID>" so any node can route a GET /v1/jobs/{id} back to
	// the node that owns the record.
	JobIDPrefix string
}

// ErrQueueFull is returned by Submit when the backlog is at capacity.
var ErrQueueFull = fmt.Errorf("service: job queue is full")

// ErrQueueClosed is returned by Submit after Shutdown begins.
var ErrQueueClosed = fmt.Errorf("service: queue is shut down")

// Submission classifies what a Submit call did.
type Submission string

// Submission outcomes.
const (
	// SubmissionNew enqueued a fresh execution.
	SubmissionNew Submission = "new"
	// SubmissionCoalesced attached to an identical in-flight job.
	SubmissionCoalesced Submission = "coalesced"
	// SubmissionStoreHit was answered from the artifact store without
	// executing anything.
	SubmissionStoreHit Submission = "store"
)

// Queue is the daemon's one executor. Jobs (each a fresh one-turn
// ChatVis session) and conversational session turns run on one worker
// pool, under one backlog bound, one WAL and one drain. Identical
// concurrent job submissions (same content key) share one execution,
// and keys already in the store never execute at all. Turns of one
// session run one at a time, in submission order; a turn waiting behind
// its predecessor holds no worker. Shutdown drains in-flight work before
// returning.
type Queue struct {
	opts  QueueOptions
	store *Store
	// sessions is the registry built over this queue (NewSessions); the
	// WAL replay routes turn records back through it.
	sessions *Sessions

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu     sync.Mutex
	closed bool
	jobs   map[string]*Job // by ID
	byKey  map[string]*Job // latest job per content key
	order  []string        // job IDs in submission order, for listing
	seq    int64

	// work carries jobs and sessions with pending turns to the workers;
	// backlog counts the accepted jobs and turns not yet picked up. Every
	// item on work stands for at least one unit of backlog, and backlog
	// only grows under mu up to Capacity, so a send never blocks.
	work    chan func()
	backlog atomic.Int64
	wg      sync.WaitGroup

	m queueMetrics
}

// queueMetrics are the queue's atomically-updated counters.
type queueMetrics struct {
	submitted atomic.Int64
	coalesced atomic.Int64
	storeHits atomic.Int64
	executed  atomic.Int64
	succeeded atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Int64
	running   atomic.Int64

	// remoteHits counts jobs answered by a ring peer (fleet-wide
	// coalescing) instead of a local execution.
	remoteHits atomic.Int64
	// replayed counts jobs re-submitted from the WAL at startup.
	replayed atomic.Int64

	latencyNanos atomic.Int64
	latencyCount atomic.Int64
	buckets      [numLatencyBuckets + 1]atomic.Int64

	// exemplars keeps the most recent traced observation per histogram
	// bucket, linking chatvis_job_duration_seconds to a trace ID in the
	// OpenMetrics exposition.
	exMu      sync.Mutex
	exemplars [numLatencyBuckets + 1]Exemplar
}

// Exemplar links one histogram bucket to the trace of a recent
// observation that landed in it.
type Exemplar struct {
	TraceID string
	// Value is the observed duration in seconds.
	Value float64
}

// latencyBuckets are the job-duration histogram upper bounds (seconds);
// the histogram has one extra +Inf overflow slot.
const numLatencyBuckets = 7

var latencyBuckets = [numLatencyBuckets]float64{0.01, 0.05, 0.1, 0.5, 1, 5, 10}

// QueueSnapshot is a point-in-time copy of the queue counters.
type QueueSnapshot struct {
	Submitted int64
	Coalesced int64
	StoreHits int64
	Executed  int64
	Succeeded int64
	Failed    int64
	Canceled  int64
	Running   int64
	Depth     int64
	// RemoteHits counts jobs satisfied by a ring peer's in-flight or
	// stored result (cluster mode); Replayed counts WAL re-submissions
	// at startup.
	RemoteHits int64
	Replayed   int64
	// LatencyTotal / LatencyCount summarize executed-job durations.
	LatencyTotal time.Duration
	LatencyCount int64
	// BucketCounts[i] counts jobs whose duration fell in the interval
	// (latencyBuckets[i-1], latencyBuckets[i]] — per-interval, NOT
	// cumulative; the final slot is the +Inf overflow. The /metrics
	// handler re-accumulates these into Prometheus cumulative buckets.
	BucketCounts []int64
	// BucketExemplars[i] is the latest traced observation in bucket i
	// (zero TraceID when the bucket has seen no traced job).
	BucketExemplars []Exemplar
}

// NewQueue builds a queue and starts its workers.
func NewQueue(opts QueueOptions) (*Queue, error) {
	if opts.Pipeline == nil {
		return nil, fmt.Errorf("service: queue needs a pipeline")
	}
	if opts.Store == nil {
		return nil, fmt.Errorf("service: queue needs a store")
	}
	if opts.Workers < 1 {
		opts.Workers = 2
	}
	if opts.Capacity < 1 {
		opts.Capacity = 256
	}
	if opts.RetainJobs < 1 {
		opts.RetainJobs = 4096
	}
	if opts.JobIDPrefix == "" {
		opts.JobIDPrefix = "job"
	}
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		opts:       opts,
		store:      opts.Store,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       map[string]*Job{},
		byKey:      map[string]*Job{},
		work:       make(chan func(), opts.Capacity),
	}
	for i := 0; i < opts.Workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q, nil
}

// Submit registers a request with no caller context (WAL replay,
// tests); traced submissions go through SubmitCtx.
func (q *Queue) Submit(req JobRequest) (*Job, Submission, error) {
	return q.SubmitCtx(context.Background(), req)
}

// SubmitCtx registers a request: it either coalesces onto an identical
// in-flight job, answers from the store, or enqueues a new execution.
// The context's observability state (trace identity) is captured on the
// job so worker spans land in the submitting request's trace; its
// cancellation is NOT inherited — an accepted job outlives the request.
func (q *Queue) SubmitCtx(ctx context.Context, req JobRequest) (*Job, Submission, error) {
	if err := req.Validate(); err != nil {
		return nil, "", err
	}
	req = req.withDefaults()
	key := Key(req)

	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, "", ErrQueueClosed
	}
	q.m.submitted.Add(1)

	// Singleflight: an identical job still in flight is shared. A
	// finished job is not — successes are answered from the store below
	// (the worker persists the result before marking the job terminal),
	// and failures/cancellations must not block a retry.
	if existing := q.byKey[key]; existing != nil {
		st := existing.Status()
		if st == StatusQueued || st == StatusRunning {
			existing.mu.Lock()
			existing.coalesced++
			existing.mu.Unlock()
			q.m.coalesced.Add(1)
			return existing, SubmissionCoalesced, nil
		}
	}

	// Store lookup: a previously executed identical request is answered
	// without touching the queue (or an LLM) — as long as every object
	// its result names is still stored. A stale result is a miss: the
	// request executes again and its PutResult replaces the result.
	if res, ok := q.store.GetResult(key); ok && q.store.HasResultObjects(res) {
		job := q.newJobLocked(key, req)
		job.TraceID = obs.TraceID(ctx)
		job.mu.Lock()
		job.fromStore = true
		job.result = res
		job.finishTerminalLocked(StatusSucceeded, "")
		job.mu.Unlock()
		q.m.storeHits.Add(1)
		return job, SubmissionStoreHit, nil
	}

	job := q.newJobLocked(key, req)
	job.TraceID = obs.TraceID(ctx)
	err := q.admitLocked(ctx, &job.admission, cluster.KindJob, "", job.ID, key, req, func() { q.run(job) })
	if err != nil {
		q.unregisterLocked(job)
		return nil, "", err
	}
	return job, SubmissionNew, nil
}

// admission is what the queue keeps of an accepted job or turn until a
// worker picks it up: the submitter's trace, detached from its
// cancellation so the run outlives the request, and the queue.wait span.
type admission struct {
	traceCtx context.Context
	waitSpan *obs.Span
}

// admitLocked is the one admission path of jobs and turns. It checks
// that the queue is open and has room, makes the accepted record durable
// before the client can hear an ack, fills adm (opening the queue.wait
// span) and puts run on the work channel (a turn queued behind its
// session's running turn passes nil: the session's worker picks it up).
// Callers hold q.mu.
func (q *Queue) admitLocked(ctx context.Context, adm *admission, kind cluster.RecordKind, session, id, key string, req any, run func()) error {
	if q.closed {
		return ErrQueueClosed
	}
	if q.backlog.Load() >= int64(q.opts.Capacity) {
		return ErrQueueFull
	}
	if w := q.opts.WAL; w != nil {
		_, wsp := obs.Start(ctx, "wal.append")
		wsp.SetAttr("kind", string(kind))
		err := w.Accepted(kind, session, id, key, req)
		wsp.SetError(err)
		wsp.End()
		if err != nil {
			return fmt.Errorf("service: logging accepted %s: %w", kind, err)
		}
	}
	adm.traceCtx = obs.Detach(ctx)
	_, adm.waitSpan = obs.Start(adm.traceCtx, "queue.wait")
	if session == "" {
		adm.waitSpan.SetAttr("job_id", id)
	} else {
		adm.waitSpan.SetAttr("session", session)
		adm.waitSpan.SetAttr("turn", id)
	}
	q.backlog.Add(1)
	if run != nil {
		q.work <- run
	}
	return nil
}

// pickup moves an admitted job or turn from the backlog to a worker.
func (q *Queue) pickup(adm admission) {
	q.backlog.Add(-1)
	adm.waitSpan.End()
}

// runContext is the context a job or turn runs under: the queue's
// lifecycle (a forced drain cancels it) carrying the submitter's trace,
// so the run's spans land in the trace of the request that submitted it.
func (q *Queue) runContext(traceCtx context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(q.baseCtx)
	if traceCtx != nil {
		ctx = obs.Graft(ctx, traceCtx)
	}
	return ctx, cancel
}

// unregisterLocked removes a just-created job that never entered the
// queue. Callers hold q.mu.
func (q *Queue) unregisterLocked(job *Job) {
	delete(q.jobs, job.ID)
	if q.byKey[job.Key] == job {
		delete(q.byKey, job.Key)
	}
	q.order = q.order[:len(q.order)-1]
}

// newJobLocked allocates and registers a job. Callers hold q.mu.
func (q *Queue) newJobLocked(key string, req JobRequest) *Job {
	q.seq++
	job := &Job{
		ID:          fmt.Sprintf("%s-%d", q.opts.JobIDPrefix, q.seq),
		Key:         key,
		Req:         req,
		status:      StatusQueued,
		submittedAt: time.Now(),
		done:        make(chan struct{}),
	}
	q.jobs[job.ID] = job
	q.byKey[key] = job
	q.order = append(q.order, job.ID)
	q.evictLocked()
	return job
}

// evictLocked drops the oldest terminal jobs once the record count
// exceeds RetainJobs, keeping daemon memory flat under sustained
// traffic. Live (queued/running) jobs are never evicted. Callers hold
// q.mu; the q.mu → job.mu lock order matches Submit's.
func (q *Queue) evictLocked() {
	excess := len(q.order) - q.opts.RetainJobs
	if excess <= 0 {
		return
	}
	kept := q.order[:0]
	for _, id := range q.order {
		job := q.jobs[id]
		if excess > 0 && job.Status().Terminal() {
			delete(q.jobs, id)
			if q.byKey[job.Key] == job {
				delete(q.byKey, job.Key)
			}
			excess--
			continue
		}
		kept = append(kept, id)
	}
	q.order = kept
}

// Get returns a job by ID.
func (q *Queue) Get(id string) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	return j, ok
}

// Jobs lists all tracked jobs in submission order.
func (q *Queue) Jobs() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]*Job, 0, len(q.order))
	for _, id := range q.order {
		out = append(out, q.jobs[id])
	}
	return out
}

// worker drains the work channel until Shutdown closes it.
func (q *Queue) worker() {
	defer q.wg.Done()
	for run := range q.work {
		run()
	}
}

// run executes one job: a fresh one-turn session through the pipeline.
func (q *Queue) run(job *Job) {
	q.pickup(job.admission)
	job.mu.Lock()
	if job.status.Terminal() { // canceled while queued
		job.mu.Unlock()
		q.m.canceled.Add(1)
		if w := q.opts.WAL; w != nil {
			_ = w.Failed(cluster.KindJob, "", job.ID, "canceled by client")
		}
		return
	}
	ctx, cancel := q.runContext(job.traceCtx)
	job.cancelFn = cancel
	job.status = StatusRunning
	job.startedAt = time.Now()
	job.mu.Unlock()
	defer cancel()

	ctx, execSpan := obs.Start(ctx, "job.execute")
	execSpan.SetAttr("job_id", job.ID)
	execSpan.SetAttr("model", job.Req.Model)
	defer execSpan.End()

	// Fleet-wide coalescing: before spending a pipeline execution, ask
	// the ring owner of this key whether an identical request is already
	// in flight or stored anywhere in the cluster.
	if rl := q.opts.RemoteLookup; rl != nil {
		if res, ok := rl(ctx, job.Key); ok && res != nil {
			_ = q.store.PutResult(res)
			execSpan.SetAttr("outcome", "remote-hit")
			q.m.remoteHits.Add(1)
			q.m.succeeded.Add(1)
			q.retire(cluster.KindJob, "", job.ID, StatusSucceeded, "")
			job.mu.Lock()
			job.result = res
			job.finishTerminalLocked(StatusSucceeded, "")
			job.mu.Unlock()
			return
		}
	}

	q.m.running.Add(1)
	q.m.executed.Add(1)
	res := &Result{Key: job.Key, Model: job.Req.Model, TraceID: job.TraceID}
	err := q.execute(ctx, cluster.KindJob, "", job.ID, res, func(ctx context.Context) (*chatvis.Artifact, error) {
		return q.opts.Pipeline(ctx, job.Req, q.store)
	})
	q.m.running.Add(-1)
	execSpan.SetError(err)
	status, errMsg := q.outcome(ctx, err)
	switch status {
	case StatusSucceeded:
		q.m.succeeded.Add(1)
	case StatusFailed:
		q.m.failed.Add(1)
	case StatusCanceled:
		q.m.canceled.Add(1)
	}
	q.retire(cluster.KindJob, "", job.ID, status, errMsg)
	job.mu.Lock()
	if status == StatusSucceeded {
		job.result = res
	}
	job.finishTerminalLocked(status, errMsg)
	job.mu.Unlock()
}

// execute is the one execution path of jobs and turns: it marks the WAL
// record started, runs the pipeline, records the run in the
// chatvis_job_duration_seconds histogram and stores the artifact,
// filling res with its hashes.
func (q *Queue) execute(ctx context.Context, kind cluster.RecordKind, session, id string, res *Result, run func(context.Context) (*chatvis.Artifact, error)) error {
	if err := ctx.Err(); err != nil {
		return err // a forced drain reached the run before it started
	}
	if w := q.opts.WAL; w != nil {
		_ = w.Started(kind, session, id)
	}
	start := time.Now()
	art, err := run(ctx)
	q.recordLatency(time.Since(start), obs.TraceID(ctx))
	if err != nil {
		return err
	}
	return q.storeArtifact(ctx, art, res)
}

// outcome classifies how a run ended: an error under a canceled context
// is a cancellation (client withdrawal or forced drain), any other error
// a failure.
func (q *Queue) outcome(ctx context.Context, err error) (JobStatus, string) {
	switch {
	case err == nil:
		return StatusSucceeded, ""
	case ctx.Err() != nil:
		return StatusCanceled, err.Error()
	default:
		return StatusFailed, err.Error()
	}
}

// retire writes a finished run's terminal WAL record; callers retire
// before they publish the terminal status. A run canceled by a forced
// drain keeps its entry pending instead: the work was accepted but never
// delivered, and MUST replay when the node comes back.
func (q *Queue) retire(kind cluster.RecordKind, session, id string, status JobStatus, errMsg string) {
	w := q.opts.WAL
	if w == nil {
		return
	}
	switch {
	case status == StatusSucceeded:
		_ = w.Completed(kind, session, id)
	case status == StatusFailed || q.baseCtx.Err() == nil:
		_ = w.Failed(kind, session, id, errMsg)
	}
}

// ReplayWAL re-submits the unfinished work a crash left in the WAL:
// every recovered job or turn record becomes a fresh submission (new ID,
// same request) and the recovered record is retired as superseded. Turn
// records go back through their session, rehydrated from the store if
// needed; call after Sessions.Restore. Completed entries were already
// dropped by the WAL replay, so nothing is executed twice; if the process
// dies between the re-submission and the retirement, the next replay's
// duplicate coalesces by key. Records that cannot run again (unreadable,
// or their session is gone) are failed terminally so they stop
// replaying. Returns how many jobs and turns were re-queued.
func (q *Queue) ReplayWAL() int {
	w := q.opts.WAL
	if w == nil {
		return 0
	}
	n := 0
	for _, rec := range w.Recovered() {
		id, err := q.resubmit(rec)
		var lost errUnreplayable
		switch {
		case errors.As(err, &lost):
			_ = w.Failed(rec.Kind, rec.Session, rec.ID, string(lost))
		case err == nil:
			_ = w.Superseded(rec, id)
			n++
		} // queue full or closed, or no session registry: leave the record for the next boot
	}
	q.m.replayed.Add(int64(n))
	return n
}

// errUnreplayable marks a recovered WAL record that can never run again.
type errUnreplayable string

func (e errUnreplayable) Error() string { return string(e) }

// resubmit submits one recovered record afresh and returns its new ID.
func (q *Queue) resubmit(rec cluster.Record) (string, error) {
	if rec.Kind == cluster.KindJob {
		var req JobRequest
		if err := json.Unmarshal(rec.Request, &req); err != nil || req.Validate() != nil {
			return "", errUnreplayable("unreplayable record")
		}
		job, _, err := q.Submit(req)
		if err != nil {
			return "", err
		}
		return job.ID, nil
	}
	if q.sessions == nil {
		return "", fmt.Errorf("service: no session registry to replay turn %s", rec.ID)
	}
	var req TurnRequest
	if err := json.Unmarshal(rec.Request, &req); err != nil || req.Validate() != nil {
		return "", errUnreplayable("unreplayable record")
	}
	s, ok := q.sessions.GetOrRestore(rec.Session)
	if !ok {
		return "", errUnreplayable("session record lost")
	}
	view, _, err := s.SubmitTurn(req)
	return view.ID, err
}

// InFlight returns the live (queued or running) job for a key, if any —
// what a ring peer interrogates for cross-node coalescing.
func (q *Queue) InFlight(key string) (*Job, bool) {
	q.mu.Lock()
	job := q.byKey[key]
	q.mu.Unlock()
	if job == nil || job.Status().Terminal() {
		return nil, false
	}
	return job, true
}

// storeArtifact is the one writer of the rest of a job's or turn's
// objects (its run stored the screenshots): under a store.write span it
// puts the script and serialized artifact into the store and fills all
// their hashes, with the run's outcome and trace, into res. A job's
// result carries its key and is then indexed under it, plan inlined, so
// repeat submissions are answered from the store; a turn copies the
// hashes into its TurnView instead.
func (q *Queue) storeArtifact(ctx context.Context, art *chatvis.Artifact, res *Result) (err error) {
	_, span := obs.Start(ctx, "store.write")
	defer func() {
		span.SetError(err)
		span.End()
	}()
	if res.ScriptHash, err = q.store.Put([]byte(art.FinalScript), "text/x-python"); err != nil {
		return err
	}
	res.ScreenshotHashes = art.Screenshots
	encoded, err := chatvis.EncodeArtifact(art)
	if err != nil {
		return err
	}
	if res.ArtifactHash, err = q.store.Put(encoded, "application/json"); err != nil {
		return err
	}
	res.Success = art.Success
	res.Iterations = art.NumIterations()
	res.PlanHash = art.PlanHash()
	res.Trace = art.Trace
	res.CreatedAt = time.Now()
	if res.Key == "" {
		return nil
	}
	if art.Plan != nil {
		if blob, err := art.Plan.Encode(); err == nil {
			res.Plan = blob
		}
	}
	return q.store.PutResult(res)
}

// recordLatency updates the duration histogram and, when the job was
// traced, stamps the bucket's exemplar with its trace ID.
func (q *Queue) recordLatency(d time.Duration, traceID string) {
	q.m.latencyNanos.Add(int64(d))
	q.m.latencyCount.Add(1)
	secs := d.Seconds()
	slot := len(latencyBuckets)
	for i, ub := range latencyBuckets {
		if secs <= ub {
			slot = i
			break
		}
	}
	q.m.buckets[slot].Add(1)
	if traceID != "" {
		q.m.exMu.Lock()
		q.m.exemplars[slot] = Exemplar{TraceID: traceID, Value: secs}
		q.m.exMu.Unlock()
	}
}

// Snapshot returns the queue counters.
func (q *Queue) Snapshot() QueueSnapshot {
	s := QueueSnapshot{
		Submitted:    q.m.submitted.Load(),
		Coalesced:    q.m.coalesced.Load(),
		StoreHits:    q.m.storeHits.Load(),
		Executed:     q.m.executed.Load(),
		Succeeded:    q.m.succeeded.Load(),
		Failed:       q.m.failed.Load(),
		Canceled:     q.m.canceled.Load(),
		Running:      q.m.running.Load(),
		Depth:        q.backlog.Load(),
		RemoteHits:   q.m.remoteHits.Load(),
		Replayed:     q.m.replayed.Load(),
		LatencyTotal: time.Duration(q.m.latencyNanos.Load()),
		LatencyCount: q.m.latencyCount.Load(),
	}
	s.BucketCounts = make([]int64, len(q.m.buckets))
	for i := range q.m.buckets {
		s.BucketCounts[i] = q.m.buckets[i].Load()
	}
	s.BucketExemplars = make([]Exemplar, len(q.m.exemplars))
	q.m.exMu.Lock()
	copy(s.BucketExemplars, q.m.exemplars[:])
	q.m.exMu.Unlock()
	return s
}

// Shutdown stops accepting submissions and drains the queue: workers
// finish queued and in-flight jobs and session turns. If ctx expires
// first, in-flight pipelines are canceled, the rest are canceled without
// running, and Shutdown returns ctx.Err after they unwind.
func (q *Queue) Shutdown(ctx context.Context) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil
	}
	q.closed = true
	close(q.work)
	q.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		// A drained node delivered everything it accepted: flush the WAL
		// so the completed transitions are durable and a restart replays
		// nothing that was already delivered.
		if w := q.opts.WAL; w != nil {
			_ = w.Sync()
		}
		return nil
	case <-ctx.Done():
		// Force: cancel every in-flight pipeline, then wait for workers
		// to unwind (pipelines honour their contexts). Their WAL entries
		// deliberately stay pending — the accepted work replays on the
		// next boot.
		q.baseCancel()
		<-drained
		if w := q.opts.WAL; w != nil {
			_ = w.Sync()
		}
		return ctx.Err()
	}
}
