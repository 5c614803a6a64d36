// Package chatvis implements the paper's contribution: an iterative
// assistant that turns a natural-language visualization request into a
// working ParaView Python script.
//
// The flow follows Fig. 1 of the paper:
//
//  1. Prompt generation — an LLM rewrites the user request into
//     step-by-step instructions, guided by a crafted example pair.
//  2. Script generation — the LLM receives the generated prompt together
//     with example code snippets (few-shot prompting) and emits a script.
//  3. Error detection and correction — the script runs under PvPython;
//     error messages are extracted from the output and fed back to the
//     LLM, which revises the script. The loop repeats until the script
//     executes cleanly or the iteration budget is exhausted.
//
// Every session is traced: the Artifact records each stage's duration,
// token usage and cache provenance (see Trace), and the whole run is
// cancellable through its context.
package chatvis

import (
	"context"
	"fmt"
	"strings"

	"chatvis/internal/errext"
	"chatvis/internal/llm"
	"chatvis/internal/plan"
	"chatvis/internal/pvpython"
)

// Iteration records one pass of the correction loop.
type Iteration struct {
	// Script is the candidate script executed this round.
	Script string `json:"script"`
	// Output is the combined PvPython output.
	Output string `json:"output,omitempty"`
	// Errors are the extracted error reports (empty on success).
	Errors []errext.ErrorReport `json:"errors,omitempty"`
	// PlanHash is the normalized plan hash of the executed script
	// (empty when it did not parse).
	PlanHash string `json:"plan_hash,omitempty"`
}

// Artifact is everything one assistant run produces. The JSON tags fix
// the wire format EncodeArtifact/DecodeArtifact persist in chatvisd's
// artifact store.
type Artifact struct {
	UserPrompt      string      `json:"user_prompt"`
	GeneratedPrompt string      `json:"generated_prompt"`
	Iterations      []Iteration `json:"iterations"`
	// FinalScript is the last executed script.
	FinalScript string `json:"final_script"`
	// Screenshots produced by the successful run.
	Screenshots []string `json:"screenshots,omitempty"`
	// Success reports whether the final script executed without error.
	Success bool `json:"success"`
	// Plan is the normalized compiled plan of the final script (nil when
	// it does not parse): the typed DAG the session produced, which
	// chatvisd serves alongside the script text.
	Plan *plan.Plan `json:"plan,omitempty"`
	// TurnIndex is the 1-based conversational turn that produced this
	// artifact (1 for one-shot runs).
	TurnIndex int `json:"turn_index,omitempty"`
	// ParentPlanHash is the canonical hash of the session plan this turn
	// edited ("" for first turns).
	ParentPlanHash string `json:"parent_plan_hash,omitempty"`
	// DeltaSummary describes how this turn's plan differs from its
	// parent ("added Slice; changed contour1").
	DeltaSummary string `json:"delta_summary,omitempty"`
	// Trace records every stage of the session (LLM calls and script
	// executions) with usage and cache provenance, and, in memory only,
	// durations.
	Trace Trace `json:"trace"`
}

// PlanHash returns the final plan's canonical hash ("" without a plan).
func (a *Artifact) PlanHash() string {
	if a.Plan == nil {
		return ""
	}
	return a.Plan.Hash()
}

// NumIterations returns how many executions the loop needed.
func (a *Artifact) NumIterations() int { return len(a.Iterations) }

// Assistant is the ChatVis agent.
type Assistant struct {
	model  llm.Client
	runner *pvpython.Runner
	opt    options
}

// NewAssistant builds an assistant over a model and a script runner.
// Behaviour is tuned with functional options: WithMaxIterations,
// WithFewShot, WithRewrite, WithAPIReference.
func NewAssistant(model llm.Client, runner *pvpython.Runner, opts ...Option) (*Assistant, error) {
	if model == nil {
		return nil, fmt.Errorf("chatvis: model is required")
	}
	if runner == nil {
		return nil, fmt.Errorf("chatvis: runner is required")
	}
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	return &Assistant{model: model, runner: runner, opt: o}, nil
}

// rewriteSystem is the stage-1 instruction (its phrasing carries the
// stage marker the simulated models dispatch on).
const rewriteSystem = `You are an assistant that prepares prompts for a ParaView scripting model.
Rewrite the user's visualization request as precise step-by-step instructions.
Identify every operation the user mentions and arrange the steps in execution order.
Follow the structure of the example below.`

// generateSystem introduces the few-shot examples (stage 2).
const generateSystem = `You are an expert in ParaView Python scripting.
Generate a complete, runnable ParaView Python script for the user's request.
Use only functions and properties that exist in paraview.simple.
Example code snippets for various operations:

%s`

// RewriteRequest returns the exact request the prompt-generation stage
// sends for a user prompt. The route calibrator replays it as the
// edit-intent probe, so probes measure the stage's real prompt shape.
func RewriteRequest(userPrompt string) llm.Request {
	return llm.Request{
		System: rewriteSystem + "\n\n" + ExamplePromptPair,
		User:   userPrompt,
		Task:   llm.TaskEditIntent,
	}
}

// repairSystem frames the correction request (stage 3).
const repairSystem = `You are an expert in ParaView Python scripting.
The previously generated script failed to execute. Use the error messages
extracted from the PvPython output to fix the code and return the full
corrected script.`

// Run executes the full ChatVis flow for one user request. The context
// cancels the session between stages and inside the model's calls.
//
// Run is a compatibility wrapper over the conversational session API: it
// creates a fresh single-turn Session and returns the first turn's
// artifact. Multi-turn callers use NewSession/Session.Turn directly.
func (a *Assistant) Run(ctx context.Context, userPrompt string) (*Artifact, error) {
	s := &Session{model: a.model, runner: a.runner, opt: a.opt}
	turn, err := s.Turn(ctx, userPrompt)
	if err != nil {
		return nil, err
	}
	return turn.Artifact, nil
}

// CleanScript strips chat artifacts (markdown fences, leading prose) from
// a model response, keeping the Python payload.
//
// Balanced fences keep exactly the fenced content. An unterminated final
// fence (models often drop the closer when truncated) keeps everything
// after it; a response whose fences delimit no content at all (e.g. a
// stray lone closer after the payload) falls back to dropping just the
// fence lines so the payload survives.
func CleanScript(resp string) string {
	lines := strings.Split(resp, "\n")
	if !strings.Contains(resp, "```") {
		return ensureTrailingNewline(resp)
	}
	var out []string
	inFence := false
	fencesLeft := 0
	for _, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fencesLeft++
		}
	}
	for _, l := range lines {
		t := strings.TrimSpace(l)
		if strings.HasPrefix(t, "```") {
			fencesLeft--
			if !inFence && fencesLeft == 0 {
				// Final fence with no closer to come: treat it as an
				// unterminated opener and keep the rest of the response.
				inFence = true
				continue
			}
			inFence = !inFence
			continue
		}
		if !inFence {
			// Outside fences in a fenced response: prose, drop it.
			continue
		}
		out = append(out, l)
	}
	if len(strings.TrimSpace(strings.Join(out, "\n"))) == 0 {
		// The fences delimited nothing (e.g. a lone trailing closer after
		// the payload): keep everything except the fence lines.
		out = out[:0]
		for _, l := range lines {
			if strings.HasPrefix(strings.TrimSpace(l), "```") {
				continue
			}
			out = append(out, l)
		}
	}
	return ensureTrailingNewline(strings.Join(out, "\n"))
}

func ensureTrailingNewline(s string) string {
	if !strings.HasSuffix(s, "\n") {
		s += "\n"
	}
	return s
}

// Unassisted runs a bare model on the raw user prompt with no prompt
// rewriting, no examples and no correction loop — the paper's comparison
// condition for GPT-4 and the other LLMs. The artifact's trace records
// the single generate and exec stages.
//
// Like Assistant.Run, it is a compatibility wrapper over the session
// API: a single-turn session in unassisted mode.
func Unassisted(ctx context.Context, model llm.Client, runner *pvpython.Runner, userPrompt string) (*Artifact, error) {
	opt := defaultOptions()
	opt.unassisted = true
	s := &Session{model: model, runner: runner, opt: opt}
	turn, err := s.Turn(ctx, userPrompt)
	if err != nil {
		return nil, err
	}
	return turn.Artifact, nil
}
