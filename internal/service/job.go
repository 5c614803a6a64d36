// Package service is the chatvisd serving subsystem: one job queue
// running ChatVis pipelines for jobs and conversational session turns on
// a worker pool, request coalescing keyed by a content hash of the full
// pipeline input, and a content-addressed artifact store holding
// generated scripts, screenshots and session traces.
//
// The flow:
//
//	POST /v1/jobs ─── Key(req) ────┬─ store hit ───────→ finished Job
//	                               ├─ in-flight match ─→ shared Job (singleflight)
//	                               └─ miss ────────────┐
//	POST /v1/sessions/{id}/turns                       │
//	  └─ TurnKey ─┬─ match ───→ shared turn            │
//	              └─ new ──────────────────────────────┤
//	                                                   ▼
//	             Queue (backlog bound, WAL, drain) ──→ worker ──→ pipeline
//	                                                                 │
//	                                    Store ←── script/screens/trace
//
// so N identical concurrent submissions share one pipeline execution,
// repeat submissions are served from the store without touching an LLM
// at all, and a turn runs on the same queue as a job: a job is a fresh
// one-turn session, a turn the next turn of its session. Turns of one
// session run in submission order; one waiting behind its predecessor
// holds no worker.
package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"chatvis/internal/chatvis"
	"chatvis/internal/llm"
	"chatvis/internal/plan"
	"chatvis/internal/pvsim"
)

// JobRequest is one script-generation request, the POST /v1/jobs body.
// Every field participates in the coalescing key: two requests coalesce
// only if the whole pipeline input — prompt, model, options and
// resolution — is identical.
type JobRequest struct {
	// Prompt is the natural-language visualization request (required).
	Prompt string `json:"prompt"`
	// SessionRequest configures the one-turn session the job runs; its
	// fields are flattened into the JSON body beside the prompt.
	SessionRequest
}

// Validate rejects requests the pipeline cannot run.
func (r JobRequest) Validate() error {
	if strings.TrimSpace(r.Prompt) == "" {
		return fmt.Errorf("service: prompt is required")
	}
	return nil
}

// keyVersion tags the hash layout; bump it whenever a field is added or
// its derivation changes so old stored results cannot be served for a
// key with different meaning. v2: the prompt field coalesces on the
// normalized intended-plan hash instead of raw prompt text.
const keyVersion = "chatvis-job-v2"

// promptKeyField derives the coalescing identity of a prompt: the
// canonical hash of the intended plan parsed from it, so two textually
// different requests that mean the same pipeline — reworded steps,
// reordered sentences, different whitespace — share one execution. The
// derivation is safe because the whole pipeline is deterministic in the
// parsed spec: identical specs produce identical artifacts for a given
// model and options. The canonical spec encoding is appended alongside
// the plan hash because the intended plan deliberately abstracts a few
// spec details the ungrounded writers still react to (e.g. the
// streamline vector array, which grounded generation leaves to engine
// auto-detection) — two specs must never coalesce unless *every* field
// agrees. Prompts the intent parser extracts no operations from fall
// back to their raw text.
func promptKeyField(prompt string) string {
	spec := llm.ParseIntent(prompt)
	if len(spec.Ops) == 0 {
		return "prompt:" + prompt
	}
	p := plan.Normalize(llm.WritePlan(spec), pvsim.PlanSchema())
	if len(p.Stages) == 0 {
		return "prompt:" + prompt
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return "prompt:" + prompt
	}
	return "plan:" + p.Hash() + "|spec:" + string(specJSON)
}

// Key returns the request's content address: a SHA-256 over every
// pipeline input, with each field length-framed so that no two distinct
// (plan, model, options, resolution) tuples can collide by field
// concatenation. Requests with the same *meaning* — and only those —
// share a key, which is what the queue coalesces on and the store
// indexes by.
func Key(r JobRequest) string {
	r.SessionRequest = r.withDefaults()
	h := sha256.New()
	writeField := func(s string) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	writeField(keyVersion)
	writeField(promptKeyField(r.Prompt))
	writeField(r.Model)
	writeField(fmt.Sprintf("%dx%d", r.Width, r.Height))
	writeField(fmt.Sprintf("iter=%d fewshot=%d rewrite=%t unassisted=%t",
		r.MaxIterations, r.FewShot, !r.NoRewrite, r.Unassisted))
	return hex.EncodeToString(h.Sum(nil))
}

// JobStatus is a job's lifecycle state.
type JobStatus string

// Job lifecycle states.
const (
	StatusQueued    JobStatus = "queued"
	StatusRunning   JobStatus = "running"
	StatusSucceeded JobStatus = "succeeded"
	StatusFailed    JobStatus = "failed"
	StatusCanceled  JobStatus = "canceled"
)

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool {
	return s == StatusSucceeded || s == StatusFailed || s == StatusCanceled
}

// Job is one tracked execution. Multiple identical submissions map to
// the same Job (coalescing); a Job whose key is already in the store is
// born succeeded without ever entering the queue.
type Job struct {
	// ID is the job handle ("job-<n>"), unique per daemon lifetime.
	ID string
	// Key is the request's content address (shared by coalesced jobs).
	Key string
	// Req is the normalized request.
	Req JobRequest
	// TraceID names the distributed trace the submission joined ("" when
	// the submitter was untraced, e.g. WAL replay).
	TraceID string

	// admission carries the submitter's trace, so worker spans land in
	// the originating request's trace after the HTTP handler returns, and
	// the queue.wait span.
	admission

	mu       sync.Mutex
	status   JobStatus
	errMsg   string
	result   *Result
	cancelFn func()

	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time

	// coalesced counts submissions beyond the first that attached to
	// this job while it was in flight.
	coalesced int
	// cancelVotes counts Cancel calls; the shared execution is only
	// canceled once every attached submission has withdrawn.
	cancelVotes int
	// fromStore marks jobs answered by a store lookup (no execution).
	fromStore bool

	// done closes when the job reaches a terminal state.
	done chan struct{}
}

// Status returns the job's current state.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Err returns the failure message ("" unless failed).
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errMsg
}

// Result returns the stored outcome (nil until succeeded).
func (j *Job) Result() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// FromStore reports whether the job was served by a store lookup.
func (j *Job) FromStore() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.fromStore
}

// Coalesced returns how many extra submissions shared this job.
func (j *Job) Coalesced() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.coalesced
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel withdraws one submitter's interest in the job. Because
// identical submissions coalesce onto one Job, the shared execution is
// only aborted once every attached submission (the original plus each
// coalesced one) has canceled — one client withdrawing must not kill
// other clients' in-flight work. Once all have withdrawn: queued jobs
// are marked canceled before a worker picks them up; running jobs have
// their context canceled.
func (j *Job) Cancel() {
	j.mu.Lock()
	j.cancelVotes++
	if j.cancelVotes <= j.coalesced {
		// Other submitters are still waiting on this execution.
		j.mu.Unlock()
		return
	}
	cancel := j.cancelFn
	if j.status == StatusQueued {
		j.finishTerminalLocked(StatusCanceled, "canceled before execution")
		j.mu.Unlock()
		return
	}
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// finishTerminalLocked transitions to a terminal state exactly once.
// Callers must hold j.mu.
func (j *Job) finishTerminalLocked(s JobStatus, errMsg string) {
	if j.status.Terminal() {
		return
	}
	j.status = s
	j.errMsg = errMsg
	j.finishedAt = time.Now()
	close(j.done)
}

// View is a point-in-time JSON projection of a Job, the GET
// /v1/jobs/{id} response body.
type View struct {
	ID        string     `json:"id"`
	Key       string     `json:"key"`
	Status    JobStatus  `json:"status"`
	Model     string     `json:"model"`
	TraceID   string     `json:"trace_id,omitempty"`
	Error     string     `json:"error,omitempty"`
	Coalesced int        `json:"coalesced,omitempty"`
	FromStore bool       `json:"from_store,omitempty"`
	Submitted time.Time  `json:"submitted_at"`
	Started   *time.Time `json:"started_at,omitempty"`
	Finished  *time.Time `json:"finished_at,omitempty"`
	// Result is present once the job succeeds: artifact hashes plus the
	// per-stage session trace.
	Result *Result `json:"result,omitempty"`
}

// Snapshot renders the job as a View.
func (j *Job) Snapshot() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID:        j.ID,
		Key:       j.Key,
		Status:    j.status,
		Model:     j.Req.Model,
		TraceID:   j.TraceID,
		Error:     j.errMsg,
		Coalesced: j.coalesced,
		FromStore: j.fromStore,
		Submitted: j.submittedAt,
		Result:    j.result,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		v.Started = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		v.Finished = &t
	}
	return v
}

// Result is the stored outcome of one executed pipeline: what the store
// persists under the job key and what GET /v1/jobs/{id} embeds. Large
// payloads (script text, screenshots, the full artifact JSON) live in
// the content-addressed object store and are referenced by hash.
type Result struct {
	// Key is the job key the result is indexed under.
	Key string `json:"key"`
	// Model that served the pipeline.
	Model string `json:"model"`
	// Success mirrors Artifact.Success.
	Success bool `json:"success"`
	// Iterations the correction loop used.
	Iterations int `json:"iterations"`
	// ScriptHash addresses the final script text in the object store.
	ScriptHash string `json:"script_hash"`
	// ScreenshotHashes address the PNG screenshots, in save order.
	ScreenshotHashes []string `json:"screenshot_hashes,omitempty"`
	// ArtifactHash addresses the full serialized chatvis.Artifact.
	ArtifactHash string `json:"artifact_hash"`
	// PlanHash is the canonical hash of the final script's normalized
	// plan ("" when the script did not compile to one).
	PlanHash string `json:"plan_hash,omitempty"`
	// Plan is the normalized plan JSON itself, inlined so
	// GET /v1/jobs/{id} serves the typed pipeline DAG alongside the
	// artifact hashes.
	Plan json.RawMessage `json:"plan,omitempty"`
	// TraceID names the distributed trace of the execution that produced
	// this result, retrievable via GET /v1/traces/{id} while retained.
	TraceID string `json:"trace_id,omitempty"`
	// Trace is the per-stage session record (durations, usage, cache
	// provenance), inlined for GET /v1/jobs/{id}.
	Trace chatvis.Trace `json:"trace"`
	// CreatedAt is when the pipeline finished.
	CreatedAt time.Time `json:"created_at"`
}
