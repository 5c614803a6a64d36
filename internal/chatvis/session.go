package chatvis

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"chatvis/internal/errext"
	"chatvis/internal/llm"
	"chatvis/internal/obs"
	"chatvis/internal/plan"
	"chatvis/internal/pvpython"
	"chatvis/internal/pvsim"
)

// Session is the conversational ChatVis API: a stateful multi-turn
// dialogue over one visualization pipeline. The first turn behaves like
// Assistant.Run (prompt rewrite → script generation → execute-and-repair
// loop); every later turn is compiled as an *edit against the session's
// current canonical plan* — the model proposes a target plan from
// (current plan JSON + utterance) via the PlanDelta path, the proposal
// is schema-validated and repaired pre-execution, and the plan executes
// on the session's persistent engine, which memoizes stages by subtree
// hash so an edit touching one stage re-executes only that stage and its
// downstream subtree.
//
// Every turn executes its pipeline once per round. A first turn's script
// that compiles to a fully modelled plan runs as that plan on the session
// engine, so the engine's memo is primed by the run itself; other
// scripts run through the interpreter.
//
// Assistant.Run and Unassisted are thin single-turn wrappers over this
// type; chatvisd's /v1/sessions endpoints and the chatvis -interactive
// REPL drive it multi-turn.
type Session struct {
	model  llm.Client
	runner *pvpython.Runner
	opt    options

	mu     sync.Mutex
	eng    *pvsim.Engine
	turns  []*Turn
	curr   *plan.Plan
	closed bool
}

// Turn is the outcome of one session turn: the artifact (script, plan,
// screenshots, trace) plus per-turn provenance and the incremental
// execution accounting.
type Turn struct {
	// Index is the 1-based turn number.
	Index int `json:"index"`
	// Prompt is the user utterance that drove the turn.
	Prompt string `json:"prompt"`
	// ParentPlanHash is the canonical hash of the plan this turn edited
	// ("" for first turns).
	ParentPlanHash string `json:"parent_plan_hash,omitempty"`
	// DeltaSummary is the human-readable plan delta vs the parent.
	DeltaSummary string `json:"delta_summary,omitempty"`
	// ChangedStages are the canonical IDs of the stages this turn's plan
	// changed vs the parent (every stage on a first turn).
	ChangedStages []string `json:"changed_stages,omitempty"`
	// ExecutionsDelta counts the pipeline-stage computations the session
	// engine actually performed for this turn — the observable that pins
	// incremental re-execution (an edit of one stage costs 1, not the
	// whole plan).
	ExecutionsDelta int64 `json:"executions_delta"`
	// Incremental reports whether the turn executed through the session
	// engine's plan memo (false for first-turn scripts that ran through
	// the interpreter).
	Incremental bool `json:"incremental"`
	// Artifact is the full session artifact of the turn.
	Artifact *Artifact `json:"artifact"`
}

// Event types emitted to a session observer.
const (
	EventTurnStarted  = "turn-started"
	EventStage        = "stage"
	EventTurnFinished = "turn-finished"
)

// Event is one observable session happening, streamed by chatvisd as a
// server-sent event.
type Event struct {
	Turn         int    `json:"turn"`
	Type         string `json:"type"`
	Stage        string `json:"stage,omitempty"`
	PlanHash     string `json:"plan_hash,omitempty"`
	DeltaSummary string `json:"delta_summary,omitempty"`
	Success      bool   `json:"success,omitempty"`
	Error        string `json:"error,omitempty"`
	// TraceID names the distributed trace of the turn that emitted the
	// event ("" when the turn ran untraced).
	TraceID string `json:"trace_id,omitempty"`
}

// NewSession builds a conversational session over a model and a runner.
// It accepts the same functional options as NewAssistant plus the
// session-specific ones (WithUnassisted, WithObserver).
func NewSession(model llm.Client, runner *pvpython.Runner, opts ...Option) (*Session, error) {
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
	return &Session{model: model, runner: runner, opt: o}, nil
}

// NewSessionFrom builds a session seeded with an existing canonical
// plan — how chatvisd rehydrates a persisted session after a restart.
// The first turn on a seeded session is an edit turn; the engine is
// cold, so that turn re-executes the full plan once and later turns are
// incremental again.
func NewSessionFrom(model llm.Client, runner *pvpython.Runner, seed *plan.Plan, opts ...Option) (*Session, error) {
	s, err := NewSession(model, runner, opts...)
	if err != nil {
		return nil, err
	}
	if seed != nil {
		s.curr = plan.Normalize(seed, pvsim.PlanSchema())
	}
	return s, nil
}

// engine lazily builds the session's persistent engine, sharing the
// runner's directories, screenshot sink and dataset cache so plan
// executions compose with the process-wide content-hash cache.
func (s *Session) engine() *pvsim.Engine {
	if s.eng == nil {
		s.eng = s.runner.NewEngine()
	}
	return s.eng
}

// Turns returns the completed turns in order.
func (s *Session) Turns() []*Turn {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Turn(nil), s.turns...)
}

// CurrentPlan returns the session's canonical plan (nil before the first
// successful turn).
func (s *Session) CurrentPlan() *plan.Plan {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.curr
}

// PlanHash returns the canonical hash of the current plan ("" if none).
func (s *Session) PlanHash() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.curr == nil {
		return ""
	}
	return s.curr.Hash()
}

// Executions exposes the session engine's computation counter (for
// tests and metrics pinning incremental behaviour).
func (s *Session) Executions() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine().Executions()
}

func (s *Session) observe(ev Event) {
	if s.opt.observer != nil {
		s.opt.observer(ev)
	}
}

// Turn runs one conversational turn. The first turn (and any turn whose
// utterance reads as a complete fresh request — it names an input file)
// runs the full generation flow; other turns run the plan-edit flow
// against the current plan. Turns are serialized: concurrent callers
// queue on the session lock.
func (s *Session) Turn(ctx context.Context, prompt string) (*Turn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := len(s.turns) + 1

	ctx, span := obs.Start(ctx, "chatvis.turn")
	span.SetAttr("turn", idx)
	defer span.End()
	tid := obs.TraceID(ctx)
	s.observe(Event{Turn: idx, Type: EventTurnStarted, TraceID: tid})

	fresh := s.curr == nil || llm.ParseIntent(prompt).InputFile != ""
	span.SetAttr("kind", map[bool]string{true: "first", false: "edit"}[fresh])
	var (
		turn *Turn
		err  error
	)
	if fresh {
		turn, err = s.firstTurn(ctx, idx, prompt)
	} else {
		turn, err = s.editTurn(ctx, idx, prompt)
	}
	if err != nil {
		span.SetError(err)
		s.observe(Event{Turn: idx, Type: EventTurnFinished, Error: err.Error(), TraceID: tid})
		return nil, err
	}
	// Stamp the trace on the per-stage record so the stored artifact can
	// be joined back to its distributed trace.
	turn.Artifact.Trace.TraceID = tid
	s.turns = append(s.turns, turn)
	s.observe(Event{
		Turn: idx, Type: EventTurnFinished,
		PlanHash:     turn.Artifact.PlanHash(),
		DeltaSummary: turn.DeltaSummary,
		Success:      turn.Artifact.Success,
		TraceID:      tid,
	})
	return turn, nil
}

// complete performs one traced LLM call: the single point every stage's
// model call funnels through, so each gets a span carrying model, token
// counts and cache/retry provenance from the middleware chain.
func (s *Session) complete(ctx context.Context, trace *Trace, stage string, req llm.Request) (string, error) {
	_, span := obs.Start(ctx, "llm."+stage)
	resp, err := s.model.Complete(ctx, req)
	if err != nil {
		span.SetError(err)
		span.End()
		return "", err
	}
	span.SetAttr("model", resp.Model)
	span.SetAttr("prompt_tokens", resp.Usage.PromptTokens)
	span.SetAttr("completion_tokens", resp.Usage.CompletionTokens)
	span.SetAttr("cache_hit", resp.CacheHit)
	span.SetAttr("attempts", resp.Attempts)
	if req.Task != "" {
		span.SetAttr("task", string(req.Task))
	}
	if req.Escalation > 0 {
		span.SetAttr("escalation", req.Escalation)
	}
	trace.addLLM(stage, req, resp, span.End())
	return resp.Text, nil
}

// exec executes one round's script once and records the round on the
// artifact. A fully modelled plan runs through ExecPlan on the session
// engine, whose memo later edit turns reuse; otherwise, or when ExecPlan
// fails, the interpreter runs the script, so its traceback is what the
// repair loop sees. compiled is the script's compile, if the caller has
// it. exec reports whether the script ran cleanly, its screenshots, and
// whether it ran on the session engine.
func (s *Session) exec(ctx context.Context, art *Artifact, round int, script string, compiled *plan.Compiled) (ok bool, shots []string, onEngine bool) {
	ctx, span := obs.Start(ctx, "script.exec")
	span.SetAttr("round", round)
	it := Iteration{Script: script}
	art.Plan, art.FinalScript = nil, script
	var err error
	if compiled == nil {
		compiled, err = plan.Compile(script, pvsim.PlanSchema())
	}
	if err == nil {
		art.Plan = plan.Normalize(compiled.Plan, pvsim.PlanSchema())
		it.PlanHash = art.Plan.Hash()
		if plan.FullyModelled(compiled.Diags) {
			if shots, err = s.engine().ExecPlan(ctx, art.Plan); err != nil {
				span.SetAttr("plan_error", err.Error())
			}
			ok, onEngine = err == nil, err == nil
		}
	}
	if onEngine {
		span.SetAttr("path", "plan")
	} else {
		span.SetAttr("path", "interpreter")
		run := s.runner.ExecContext(ctx, script)
		it.Output, it.Errors, shots = run.Output, errext.Extract(run.Output), run.Screenshots
		ok = run.OK() && len(it.Errors) == 0
	}
	if !ok {
		span.Fail("script execution failed")
	}
	art.Iterations = append(art.Iterations, it)
	art.Trace.add(StageTrace{
		Stage:    fmt.Sprintf("%s-%d", StageExec, round),
		Duration: span.End(),
		PlanHash: it.PlanHash,
	})
	return ok, shots, onEngine
}

// planRepair is the pre-execution validation loop: compile the candidate
// script to the plan IR, and when schema validation finds errors, hand
// the structured diagnostics to the model for repair — before paying for
// an engine run. Bounded to two rounds; a model that cannot make
// progress (or a script that does not even parse) falls through to the
// ordinary execute-and-repair loop.
// It also returns the compile of the script it returns, if it has one.
func (s *Session) planRepair(ctx context.Context, trace *Trace, script string) (string, *plan.Compiled, error) {
	for round := 1; round <= 2; round++ {
		_, vspan := obs.Start(ctx, "plan.validate")
		vspan.SetAttr("round", round)
		compiled, err := plan.Compile(script, pvsim.PlanSchema())
		if err != nil {
			// Unparsable: the execution loop's SyntaxError path owns it.
			vspan.Fail("script does not compile to a plan")
			vspan.End()
			return script, nil, nil
		}
		diags := plan.Errors(compiled.Diags)
		vspan.SetAttr("diagnostics", len(diags))
		trace.add(StageTrace{
			Stage:    fmt.Sprintf("%s-%d", StageValidate, round),
			Duration: vspan.End(),
			PlanHash: compiled.Plan.Hash(),
		})
		if len(diags) == 0 {
			return script, compiled, nil
		}
		resp, err := s.complete(ctx, trace,
			fmt.Sprintf("%s-%d", StagePlanRepair, round), llm.Request{
				System: repairSystem,
				User:   llm.BuildPlanRepairUser(script, diags),
				// Regenerating the script from plan diagnostics is
				// writer-class work; round 2 means round 1's repair
				// left diagnostics standing, so escalate.
				Task:       llm.TaskWrite,
				Escalation: round - 1,
			})
		if err != nil {
			return "", nil, fmt.Errorf("chatvis: plan repair: %w", err)
		}
		revised := CleanScript(resp)
		if strings.TrimSpace(revised) == strings.TrimSpace(script) {
			return script, compiled, nil
		}
		script = revised
	}
	return script, nil, nil
}

// exampleBlock renders the (possibly truncated) example library. An empty
// string means "no examples" (fewShot < 0).
func (s *Session) exampleBlock() string {
	if s.opt.fewShot < 0 {
		return ""
	}
	examples := DefaultExamples()
	if s.opt.fewShot > 0 && s.opt.fewShot < len(examples) {
		examples = examples[:s.opt.fewShot]
	}
	var b strings.Builder
	for _, ex := range examples {
		b.WriteString(ex.Code)
		b.WriteString("\n\n")
	}
	return b.String()
}

// firstTurn runs the full generation flow (the paper's loop, or the
// unassisted comparison condition) and adopts the resulting plan as
// session state. When the final script ran as a plan on the session
// engine, the engine already holds its stages, so the next edit
// re-executes only what it changes.
func (s *Session) firstTurn(ctx context.Context, idx int, prompt string) (*Turn, error) {
	run := s.runAssisted
	if s.opt.unassisted {
		run = s.runUnassisted
	}
	eng := s.engine()
	before := eng.Executions()
	art, onEngine, err := run(ctx, idx, prompt)
	if err != nil {
		return nil, err
	}
	art.TurnIndex = idx
	art.DeltaSummary = plan.DiffSummary(nil, art.Plan)
	turn := &Turn{
		Index:           idx,
		Prompt:          prompt,
		DeltaSummary:    art.DeltaSummary,
		ExecutionsDelta: eng.Executions() - before,
		Incremental:     art.Success && onEngine,
		Artifact:        art,
	}
	if art.Plan != nil {
		turn.ChangedStages = plan.ChangedStages(nil, art.Plan)
	}
	if art.Success && art.Plan != nil {
		s.curr = art.Plan
	}
	return turn, nil
}

// runAssisted is the classic ChatVis flow: prompt generation, few-shot
// script generation, optional pre-execution plan validation, then the
// execute / extract-errors / repair loop. It also reports whether the
// final script ran as a plan on the session engine.
func (s *Session) runAssisted(ctx context.Context, idx int, userPrompt string) (*Artifact, bool, error) {
	art := &Artifact{UserPrompt: userPrompt}
	art.Trace.OnAdd = s.stageObserver(ctx, idx)

	// Stage 1: prompt generation.
	genPrompt := userPrompt
	if s.opt.rewritePrompt {
		resp, err := s.complete(ctx, &art.Trace, StageRewrite, RewriteRequest(userPrompt))
		if err != nil {
			return nil, false, fmt.Errorf("chatvis: prompt generation: %w", err)
		}
		genPrompt = resp
	}
	art.GeneratedPrompt = genPrompt

	// Stage 2: script generation with few-shot examples and/or API docs.
	genSys := "You are an expert in ParaView Python scripting.\nGenerate a complete, runnable ParaView Python script for the user's request."
	if block := s.exampleBlock(); block != "" {
		genSys = fmt.Sprintf(generateSystem, block)
	}
	if s.opt.apiReference != "" {
		genSys += "\n\nComplete API documentation:\n" + s.opt.apiReference
	}
	resp, err := s.complete(ctx, &art.Trace, StageGenerate, llm.Request{
		System: genSys,
		User:   genPrompt,
		Task:   llm.TaskWrite,
	})
	if err != nil {
		return nil, false, fmt.Errorf("chatvis: script generation: %w", err)
	}
	script := CleanScript(resp)

	// Stage 2.5 (plan-aware mode): validate the compiled plan and repair
	// diagnostics before the first engine run.
	var compiled *plan.Compiled
	if s.opt.planValidate {
		script, compiled, err = s.planRepair(ctx, &art.Trace, script)
		if err != nil {
			return nil, false, err
		}
	}

	// Stage 3: execute, extract errors, repair.
	for iter := 0; iter < s.opt.maxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, false, fmt.Errorf("chatvis: correction loop: %w", err)
		}
		ok, shots, onEngine := s.exec(ctx, art, iter+1, script, compiled)
		compiled = nil
		if ok {
			art.Success, art.Screenshots = true, shots
			return art, onEngine, nil
		}
		resp, err := s.complete(ctx, &art.Trace,
			fmt.Sprintf("%s-%d", StageRepair, iter+1), llm.Request{
				System: repairSystem,
				User:   llm.BuildRepairUser(script, errext.Summarize(art.Iterations[iter].Errors)),
				// Traceback repair regenerates the whole script —
				// writer-class work. iter counts previous failed repair
				// rounds: the first repair runs on the primary model,
				// later rounds climb the router's strength ladder.
				Task:       llm.TaskWrite,
				Escalation: iter,
			})
		if err != nil {
			return nil, false, fmt.Errorf("chatvis: script repair: %w", err)
		}
		revised := CleanScript(resp)
		if strings.TrimSpace(revised) == strings.TrimSpace(script) {
			// The model cannot make progress; stop early.
			break
		}
		script = revised
	}
	return art, false, nil
}

// runUnassisted is the bare-model comparison condition: one generation,
// one execution, no post-processing.
func (s *Session) runUnassisted(ctx context.Context, idx int, userPrompt string) (*Artifact, bool, error) {
	art := &Artifact{UserPrompt: userPrompt, GeneratedPrompt: userPrompt}
	art.Trace.OnAdd = s.stageObserver(ctx, idx)
	// No assistant post-processing: the raw response runs as-is, which is
	// how markdown fences become syntax errors.
	script, err := s.complete(ctx, &art.Trace, StageGenerate, llm.Request{
		System: "Generate a ParaView Python script for the user's request.",
		User:   userPrompt,
		Task:   llm.TaskWrite,
	})
	if err != nil {
		return nil, false, err
	}
	ok, shots, onEngine := s.exec(ctx, art, 1, script, nil)
	art.Success, art.Screenshots = ok, shots
	return art, onEngine, nil
}

// stageObserver forwards trace stages to the session observer as events,
// tagged with the turn's trace ID so streamed stage events can be joined
// to the distributed trace.
func (s *Session) stageObserver(ctx context.Context, idx int) func(StageTrace) {
	if s.opt.observer == nil {
		return nil
	}
	tid := obs.TraceID(ctx)
	return func(st StageTrace) {
		s.opt.observer(Event{Turn: idx, Type: EventStage, Stage: st.Stage, PlanHash: st.PlanHash, TraceID: tid})
	}
}

// editTurn runs the conversational edit flow: PlanDelta (model proposes
// the target plan from current plan + utterance), schema validation with
// bounded model repair, then incremental execution on the session
// engine.
func (s *Session) editTurn(ctx context.Context, idx int, prompt string) (*Turn, error) {
	parent := s.curr
	art := &Artifact{
		UserPrompt:      prompt,
		GeneratedPrompt: prompt,
		TurnIndex:       idx,
		ParentPlanHash:  parent.Hash(),
	}
	art.Trace.OnAdd = s.stageObserver(ctx, idx)
	turn := &Turn{Index: idx, Prompt: prompt, ParentPlanHash: parent.Hash(), Artifact: art}

	// Stage E1: the model proposes the target plan.
	resp, err := s.complete(ctx, &art.Trace, StageEdit, llm.Request{
		System: llm.EditSystem,
		User:   llm.BuildPlanEditUser(parent, prompt),
		Task:   llm.TaskPlanDelta,
	})
	if err != nil {
		return nil, fmt.Errorf("chatvis: plan edit: %w", err)
	}
	proposed, perr := llm.ParsePlanText(resp)
	if perr != nil {
		// An unusable proposal fails the turn but not the session: the
		// current plan stands.
		art.Iterations = []Iteration{{Script: resp, Output: fmt.Sprintf("Error: %v\n", perr)}}
		art.FinalScript = resp
		return turn, nil
	}

	// Stage E2: validate the proposal, with bounded model repair.
	schema := pvsim.PlanSchema()
	for round := 1; round <= 2; round++ {
		_, vspan := obs.Start(ctx, "plan.validate")
		vspan.SetAttr("round", round)
		diags := plan.Errors(plan.Validate(proposed, schema))
		vspan.SetAttr("diagnostics", len(diags))
		art.Trace.add(StageTrace{
			Stage:    fmt.Sprintf("%s-%d", StageEditValidate, round),
			Duration: vspan.End(),
			PlanHash: proposed.Hash(),
		})
		if len(diags) == 0 {
			break
		}
		resp, err := s.complete(ctx, &art.Trace,
			fmt.Sprintf("%s-%d", StageEditRepair, round), llm.Request{
				System: llm.EditSystem,
				User:   llm.BuildPlanDeltaRepairUser(proposed, diags),
				// Structured plan-document repair: round 2 means the
				// first repair attempt left diagnostics, so escalate.
				Task:       llm.TaskPlanRepair,
				Escalation: round - 1,
			})
		if err != nil {
			return nil, fmt.Errorf("chatvis: plan-edit repair: %w", err)
		}
		if repaired, rerr := llm.ParsePlanText(resp); rerr == nil {
			proposed = repaired
		}
	}

	next := plan.Normalize(proposed, schema)
	turn.ChangedStages = plan.ChangedStages(parent, next)
	turn.DeltaSummary = plan.DiffSummary(parent, next)
	art.DeltaSummary = turn.DeltaSummary
	art.FinalScript = next.Script()
	art.Plan = next

	// Stage E3: incremental execution — unchanged stages are answered
	// from the engine's plan memo; Executions() advances only by the
	// changed-stage count.
	eng := s.engine()
	before := eng.Executions()
	execCtx, execSpan := obs.Start(ctx, "engine.exec-plan")
	shots, execErr := eng.ExecPlan(execCtx, next)
	execSpan.SetError(execErr)
	art.Trace.add(StageTrace{
		Stage:    StageExec + "-1",
		Duration: execSpan.End(),
		PlanHash: next.Hash(),
	})
	turn.ExecutionsDelta = eng.Executions() - before
	turn.Incremental = true

	iter := Iteration{Script: art.FinalScript, PlanHash: next.Hash()}
	if execErr != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("chatvis: edit turn: %w", ctx.Err())
		}
		iter.Output = fmt.Sprintf("Error: %v\n", execErr)
		iter.Errors = errext.Extract(iter.Output)
		art.Iterations = []Iteration{iter}
		return turn, nil // failed turn; session plan unchanged
	}
	art.Iterations = []Iteration{iter}
	art.Success = true
	art.Screenshots = shots
	s.curr = next
	return turn, nil
}
