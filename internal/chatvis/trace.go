package chatvis

import (
	"fmt"
	"strings"
	"time"

	"chatvis/internal/llm"
)

// Stage names recorded in a Trace. Repair and exec stages carry a 1-based
// round suffix ("repair-2", "exec-2").
const (
	StageRewrite  = "rewrite"
	StageGenerate = "generate"
	StageRepair   = "repair"
	StageExec     = "exec"
	// StageValidate is a pre-execution plan compilation + schema check.
	StageValidate = "validate"
	// StagePlanRepair is a model call repairing plan diagnostics before
	// the first engine run.
	StagePlanRepair = "plan-repair"
	// StageEdit is a conversational turn's PlanDelta call: the model
	// proposes the target plan from the current plan plus the utterance.
	StageEdit = "edit"
	// StageEditValidate is the schema check of a proposed target plan.
	StageEditValidate = "edit-validate"
	// StageEditRepair is a model call fixing a proposed plan's validation
	// diagnostics before execution.
	StageEditRepair = "edit-repair"
)

// StageTrace is one timed step of an assistant session: an LLM call
// (rewrite / generate / repair-N, with usage and cache provenance) or a
// script execution (exec-N, duration only).
type StageTrace struct {
	// Stage names the step ("rewrite", "generate", "repair-1", "exec-1").
	Stage string `json:"stage"`
	// Model is the client that served an LLM stage (empty for exec).
	// Under routing this is the model the router actually picked, which
	// may differ per stage — the routed-model provenance of the turn.
	Model string `json:"model,omitempty"`
	// Task is the request's task kind for an LLM stage ("write",
	// "plan-repair", "edit-intent", "plan-delta"; empty for exec).
	Task string `json:"task,omitempty"`
	// Escalation is the request's escalation level (0 = primary model;
	// N>0 = the Nth rung of the router's strength ladder after repeated
	// validation/repair failures).
	Escalation int `json:"escalation,omitempty"`
	// Duration is the stage's wall-clock time (nanoseconds in JSON).
	Duration time.Duration `json:"duration_ns"`
	// Usage is the LLM usage (zero for exec stages).
	Usage llm.Usage `json:"usage"`
	// CacheHit marks LLM stages served from a response cache.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Attempts counts retries the stage's LLM call consumed (0 for exec).
	Attempts int `json:"attempts,omitempty"`
	// PlanHash is the normalized plan hash of the script an exec stage
	// ran (empty when the script did not compile to a plan) — the
	// per-stage provenance that lets traces show which iterations
	// actually changed the pipeline's meaning.
	PlanHash string `json:"plan_hash,omitempty"`
}

// Trace is the per-stage record of one assistant session, in execution
// order.
type Trace struct {
	Stages []StageTrace `json:"stages"`

	// TraceID names the distributed trace the turn ran under ("" when it
	// ran untraced), joining the stored artifact to GET /v1/traces/{id}.
	TraceID string `json:"trace_id,omitempty"`

	// OnAdd, when set, observes every stage as it is recorded — the hook
	// conversational sessions use to stream live progress events (SSE)
	// while a turn runs. Never serialized.
	OnAdd func(StageTrace) `json:"-"`
}

func (t *Trace) add(s StageTrace) {
	t.Stages = append(t.Stages, s)
	if t.OnAdd != nil {
		t.OnAdd(s)
	}
}

// addLLM records a completed LLM stage from its request and response:
// the request carries task/escalation provenance, the response carries
// the serving model and usage.
func (t *Trace) addLLM(stage string, req llm.Request, resp llm.Response, elapsed time.Duration) {
	t.add(StageTrace{
		Stage:      stage,
		Model:      resp.Model,
		Task:       string(req.Task),
		Escalation: req.Escalation,
		Duration:   elapsed,
		Usage:      resp.Usage,
		CacheHit:   resp.CacheHit,
		Attempts:   resp.Attempts,
	})
}

// Models returns the distinct serving models of the trace's LLM stages,
// in first-use order. More than one entry means the stages were routed
// to different models (per-task routing or escalation).
func (t *Trace) Models() []string {
	var out []string
	seen := map[string]bool{}
	for _, s := range t.Stages {
		if s.Model != "" && !seen[s.Model] {
			seen[s.Model] = true
			out = append(out, s.Model)
		}
	}
	return out
}

// TotalDuration sums all stage durations.
func (t *Trace) TotalDuration() time.Duration {
	var d time.Duration
	for _, s := range t.Stages {
		d += s.Duration
	}
	return d
}

// TotalUsage sums LLM usage across stages.
func (t *Trace) TotalUsage() llm.Usage {
	var u llm.Usage
	for _, s := range t.Stages {
		u = u.Add(s.Usage)
	}
	return u
}

// LLMCalls counts the stages that reached (or were served for) the model.
func (t *Trace) LLMCalls() int {
	n := 0
	for _, s := range t.Stages {
		if s.Model != "" {
			n++
		}
	}
	return n
}

// Format renders the trace as an aligned per-stage table.
func (t *Trace) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-14s %12s %8s %8s %s\n",
		"stage", "model", "duration", "tokens", "chars", "notes")
	for _, s := range t.Stages {
		notes := ""
		if s.CacheHit {
			notes = "cache-hit"
		}
		if s.Attempts > 1 {
			if notes != "" {
				notes += " "
			}
			notes += fmt.Sprintf("attempts=%d", s.Attempts)
		}
		if s.Escalation > 0 {
			if notes != "" {
				notes += " "
			}
			notes += fmt.Sprintf("esc=%d", s.Escalation)
		}
		fmt.Fprintf(&b, "%-12s %-14s %12s %8d %8d %s\n",
			s.Stage, s.Model, s.Duration.Round(time.Microsecond),
			s.Usage.TotalTokens(), s.Usage.PromptChars+s.Usage.CompletionChars, notes)
	}
	u := t.TotalUsage()
	fmt.Fprintf(&b, "%-12s %-14s %12s %8d %8d\n",
		"total", "", t.TotalDuration().Round(time.Microsecond),
		u.TotalTokens(), u.PromptChars+u.CompletionChars)
	return b.String()
}
