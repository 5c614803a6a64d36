package llm

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"chatvis/internal/errext"
	"chatvis/internal/plan"
)

// Request is one chat completion request: a system prompt (instructions
// plus any example snippets) and the user content.
type Request struct {
	System string
	User   string

	// Task classifies what the call asks the model to do (see TaskKind).
	// A routing client selects the serving model by task; untagged
	// requests fall through to the configured model. Simulated backends
	// ignore it — they dispatch on prompt markers, like a real model
	// reads its prompt.
	Task TaskKind
	// Escalation is the caller's failure count for this logical step: 0
	// for a first attempt, incremented each time a validation/repair
	// round has to re-ask. A routing client walks one rung up its
	// strength ladder per escalation, bounded by the task's budget.
	Escalation int
}

// Client is the LLM interface the assistant talks to — shaped like a
// chat-completion API so a network-backed implementation could be dropped
// in where the paper used the OpenAI Python API. Complete honours the
// context (cancellation, deadlines) and returns a Response carrying
// usage, latency and cache provenance alongside the text, so middlewares
// (WithCache, WithRetry, WithMetrics) and the traced
// assistant sessions have something to hang observability on.
type Client interface {
	// Name identifies the model (e.g. "gpt-4").
	Name() string
	// Complete returns the model's response to one chat exchange.
	Complete(ctx context.Context, req Request) (Response, error)
}

// Mode markers the simulated models key their behaviour on. The assistant
// embeds these phrases in its prompts; they match how the paper describes
// each stage.
const (
	// rewriteMarker appears in the prompt-generation stage.
	rewriteMarker = "step-by-step"
	// exampleMarker introduces few-shot snippets in the system prompt.
	exampleMarker = "Example code snippets"
	// repairMarker appears in the correction-loop prompt.
	repairMarker = "fix the code"
	// scriptOpen/scriptClose delimit the previous script in repair
	// prompts.
	scriptOpen  = "--- SCRIPT ---"
	scriptClose = "--- END SCRIPT ---"
	// errorsOpen/errorsClose delimit the extracted error messages.
	errorsOpen  = "--- ERRORS ---"
	errorsClose = "--- END ERRORS ---"
)

// BuildRepairUser formats the correction-loop user prompt the assistant
// sends: the failing script plus the extracted error messages.
func BuildRepairUser(script, errors string) string {
	return fmt.Sprintf("The following ParaView Python script failed. Please fix the code so it runs correctly and regenerate the full script.\n%s\n%s\n%s\n%s\n%s\n%s\n",
		scriptOpen, script, scriptClose, errorsOpen, errors, errorsClose)
}

// SimModel is a deterministic simulated LLM with a competence profile.
type SimModel struct {
	P Profile
}

// Name implements Client.
func (m *SimModel) Name() string { return m.P.Name }

// Complete implements Client, dispatching on the request's stage.
func (m *SimModel) Complete(ctx context.Context, req Request) (Response, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	sys := req.System
	user := req.User
	var text string
	switch {
	case strings.Contains(user, planEditOpen):
		// Conversational plan editing: the current plan as JSON plus
		// either a follow-up utterance (PlanDelta) or validation
		// diagnostics (pre-execution plan repair). The response is the
		// full target plan as JSON.
		cur, err := ParsePlanText(between(user, planEditOpen, planEditClose))
		switch {
		case err != nil:
			text = "{}"
		case strings.Contains(user, planDiagOpen):
			var diags []plan.Diagnostic
			_ = json.Unmarshal([]byte(between(user, planDiagOpen, planDiagClose)), &diags)
			text = encodePlanText(RepairPlanDoc(cur, diags, m.P.RepairSkill))
		default:
			utter := between(user, editReqOpen, editReqClose)
			text = encodePlanText(ApplyEdits(cur, ParseEditIntent(utter)))
		}
	case strings.Contains(user, planDiagOpen):
		// Pre-execution repair: structured plan diagnostics instead of a
		// traceback — the validation-first signal of the plan IR.
		script := between(user, scriptOpen, scriptClose)
		var diags []plan.Diagnostic
		_ = json.Unmarshal([]byte(between(user, planDiagOpen, planDiagClose)), &diags)
		text = RepairPlan(strings.TrimSpace(script)+"\n", diags, m.P.RepairSkill)
	case strings.Contains(user, scriptOpen) || strings.Contains(sys+user, repairMarker):
		script := between(user, scriptOpen, scriptClose)
		errText := between(user, errorsOpen, errorsClose)
		reports := errext.Extract(errText)
		text = Repair(strings.TrimSpace(script)+"\n", reports, m.P.RepairSkill)
	case strings.Contains(sys, rewriteMarker) && !strings.Contains(sys, exampleMarker):
		// Prompt-generation stage: rewrite the request into steps.
		spec := ParseIntent(user)
		text = RenderStepPrompt(spec)
	default:
		// Script generation. Grounding is op-granular: only the
		// operations the example snippets (or a full API reference)
		// demonstrate are generated with the canonical API.
		spec := ParseIntent(user)
		g := GroundingFromText(sys)
		text = WriteScript(spec, m.P, g)
	}
	return NewResponse(m.P.Name, req, text, start), nil
}

// encodePlanText renders a plan as the JSON payload of a model response.
func encodePlanText(p *plan.Plan) string {
	blob, err := p.Encode()
	if err != nil {
		return "{}"
	}
	return string(blob)
}

func between(s, open, close string) string {
	i := strings.Index(s, open)
	if i < 0 {
		return ""
	}
	s = s[i+len(open):]
	j := strings.Index(s, close)
	if j < 0 {
		return s
	}
	return s[:j]
}

// simProfiles describes the models the paper evaluates, plus an "oracle"
// used for testing and ablations. Competence parameters are calibrated to
// Table II and the per-task failure descriptions in §IV. Each profile is
// registered as a backend in DefaultRegistry.
var simProfiles = map[string]Profile{
	"gpt-4": {
		Name:                    "gpt-4",
		Hallucinates:            true, // when not grounded by examples
		DetailSlips:             true, // exercised under ChatVis grounding
		SetsExplicitCamera:      true,
		OmitsBackgroundOverride: true,
		RepairSkill:             2,
	},
	"gpt-3.5-turbo": {
		Name:         "gpt-3.5-turbo",
		SyntaxDefect: "paren",
		Hallucinates: true,
		RepairSkill:  1,
	},
	"llama3-8b": {
		Name:         "llama3-8b",
		SyntaxDefect: "fence",
		Hallucinates: true,
		RepairSkill:  0,
	},
	"codellama-7b": {
		Name:         "codellama-7b",
		SyntaxDefect: "indent",
		Hallucinates: true,
		RepairSkill:  0,
	},
	"codegemma": {
		Name:         "codegemma",
		SyntaxDefect: "string",
		Hallucinates: true,
		RepairSkill:  0,
	},
	"oracle": {
		Name:        "oracle",
		RepairSkill: 2,
	},
}

// PaperModels lists the unassisted comparison models in the order of the
// paper's Table II columns.
func PaperModels() []string {
	return []string{"gpt-4", "gpt-3.5-turbo", "llama3-8b", "codellama-7b", "codegemma"}
}

// SimProfiles returns the built-in simulated model profiles, sorted by
// name. Test sweeps (e.g. the scenario × profile plan round-trip suite)
// iterate the full competence space through this.
func SimProfiles() []Profile {
	names := make([]string, 0, len(simProfiles))
	for name := range simProfiles {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Profile, 0, len(names))
	for _, name := range names {
		out = append(out, simProfiles[name])
	}
	return out
}
