package chatvis

// options is the resolved assistant configuration; callers set it through
// functional Options so defaults can evolve without breaking call sites.
type options struct {
	// maxIterations bounds the correction loop.
	maxIterations int
	// fewShot truncates the example library to its first n entries;
	// 0 means the full library and a negative value disables examples
	// entirely (the ablation bench's knob).
	fewShot int
	// rewritePrompt enables the prompt-generation stage.
	rewritePrompt bool
	// apiReference, when non-empty, is appended to the generation prompt
	// as documentation-based grounding.
	apiReference string
	// planValidate compiles each candidate script to the plan IR and
	// feeds validation diagnostics to the model *before* the first
	// engine run. Off by default: the paper's loop is purely
	// execute-and-repair, and the paper-reproduction tests pin that
	// behaviour; the chatvisd serving path turns it on.
	planValidate bool
	// unassisted runs first turns as the bare model: no prompt rewrite,
	// no examples, no cleaning, no correction loop — the paper's
	// comparison condition, expressed as a session mode.
	unassisted bool
	// observer receives session events (turn lifecycle, trace stages) as
	// they happen; nil disables emission.
	observer func(Event)
}

func defaultOptions() options {
	return options{
		maxIterations: 5,
		fewShot:       0,
		rewritePrompt: true,
	}
}

// Option configures an Assistant.
type Option func(*options)

// WithMaxIterations bounds the error-correction loop (default 5; values
// < 1 are coerced to 1 so the script always executes at least once).
func WithMaxIterations(n int) Option {
	return func(o *options) {
		if n < 1 {
			n = 1
		}
		o.maxIterations = n
	}
}

// WithFewShot truncates the example library to its first n snippets.
// 0 keeps the full library; a negative value disables examples entirely
// (the ablation setting).
func WithFewShot(n int) Option {
	return func(o *options) { o.fewShot = n }
}

// WithRewrite toggles the prompt-generation stage (default on; the
// ablation bench switches it off).
func WithRewrite(enabled bool) Option {
	return func(o *options) { o.rewritePrompt = enabled }
}

// WithAPIReference appends full API documentation to the generation
// prompt — the paper's proposed alternative to few-shot snippets
// (teaching the model ParaView's real function calls). Obtain it from
// pvsim's Engine.APIReference().Format().
func WithAPIReference(ref string) Option {
	return func(o *options) { o.apiReference = ref }
}

// WithPlanValidation toggles pre-execution plan validation: candidate
// scripts are compiled to the plan IR and schema-validated, and error
// diagnostics are repaired by the model before any engine time is spent.
// A competent model then fixes every hallucinated property in one round
// instead of discovering them traceback by traceback.
func WithPlanValidation(enabled bool) Option {
	return func(o *options) { o.planValidate = enabled }
}

// WithUnassisted runs first turns as the bare model — no prompt rewrite,
// no examples, no cleaning, no correction loop (the paper's comparison
// condition). Later turns still use the plan-edit path.
func WithUnassisted(enabled bool) Option {
	return func(o *options) { o.unassisted = enabled }
}

// WithObserver registers a callback receiving session events (turn
// lifecycle and per-stage progress) as they happen — the hook chatvisd
// streams over SSE.
func WithObserver(fn func(Event)) Option {
	return func(o *options) { o.observer = fn }
}
