package route

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"chatvis/internal/chatvis"
	"chatvis/internal/eval"
	"chatvis/internal/llm"
	"chatvis/internal/plan"
	"chatvis/internal/pvsim"
)

// The probe calibrator: measure every registered model on a task-keyed
// slice of the eval grid and emit append-only ModelProfile records.
//
// Each task kind probes the capability it routes:
//
//   - write        — cold (single-shot, ungrounded) script writes over
//     the probe scenarios, scored on execution success, plan-graph
//     similarity and image match. Cold writes are deliberate: the
//     assisted loop's fence-stripping and repair iterations rescue
//     weak writers on easy inputs, so probing through the loop would
//     erase exactly the capability differences the router exists to
//     price (the paper's Table II measures models cold for the same
//     reason);
//   - edit-intent  — the real rewrite-stage prompt replayed per
//     scenario, scored by line overlap with the reference step prompt;
//   - plan-delta   — plan-edit requests over each scenario's reference
//     plan, scored by plan similarity against the intent applied
//     mechanically;
//   - plan-repair  — a reference plan corrupted with an unknown
//     property, scored on whether the model's repair validates clean.
//
// Probe calls are tagged llm.TaskProbe so a routed client never
// intercepts its own calibration traffic.

// probeEditUtterances drive the plan-delta probe. They are
// scenario-agnostic edits every reference plan accepts.
var probeEditUtterances = []string{
	"Rotate the view to an isometric direction.",
	"Save the screenshot as 'probe-edit.png'.",
}

// CalibrateConfig drives one calibration pass.
type CalibrateConfig struct {
	// Eval supplies the probe environment (DataDir, OutDir, resolution,
	// iteration budget).
	Eval eval.Config
	// Models to calibrate; default llm.PaperModels() — the serving
	// candidates. The "oracle" test fixture stays out of routing unless
	// listed explicitly.
	Models []string
	// Scenarios are the probe scenario IDs; default: every registered
	// scenario.
	Scenarios []string
	// NewClient resolves a model name to a client; default llm.NewModel.
	NewClient func(string) (llm.Client, error)
	// CostWeights prices the models; default DefaultCostWeights.
	CostWeights map[string]float64
	// Log, when set, receives per-probe progress lines.
	Log func(format string, args ...interface{})
}

func (c CalibrateConfig) logf(format string, args ...interface{}) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}

func (c CalibrateConfig) client(model string) (llm.Client, error) {
	if c.NewClient != nil {
		return c.NewClient(model)
	}
	return llm.NewModel(model)
}

func (c CalibrateConfig) cost(model string) float64 {
	if c.CostWeights != nil {
		if w, ok := c.CostWeights[model]; ok {
			return w
		}
		return 1.0
	}
	return CostWeight(model)
}

// scenarios resolves the probe scenario list.
func (c CalibrateConfig) scenarios() ([]eval.Scenario, error) {
	ids := c.Scenarios
	if len(ids) == 0 {
		for _, s := range eval.Scenarios() {
			ids = append(ids, s.ID)
		}
	}
	out := make([]eval.Scenario, 0, len(ids))
	for _, id := range ids {
		scn, ok := eval.ScenarioByID(id)
		if !ok {
			return nil, fmt.Errorf("route: unknown probe scenario %q", id)
		}
		out = append(out, scn)
	}
	return out, nil
}

// ProbeHash fingerprints the probe corpus: scenario identities at the
// probe resolution plus the edit utterances. Profiles are comparable
// only when their hashes match.
func (c CalibrateConfig) ProbeHash() (string, error) {
	scns, err := c.scenarios()
	if err != nil {
		return "", err
	}
	cfg := c.Eval
	w, h := cfg.Width, cfg.Height
	if w == 0 {
		w, h = 480, 270
	}
	hash := sha256.New()
	fmt.Fprintf(hash, "v%d %dx%d\n", StoreVersion, w, h)
	for _, scn := range scns {
		fmt.Fprintf(hash, "%s: %s\n", scn.ID, scn.UserPrompt(w, h))
	}
	for _, u := range probeEditUtterances {
		fmt.Fprintf(hash, "edit: %s\n", u)
	}
	return hex.EncodeToString(hash.Sum(nil))[:16], nil
}

// Calibrate measures every model on every routable task and returns the
// profile records (Seq unassigned — ProfileStore.Append owns that).
// Models are probed in sorted order, tasks in llm.TaskKinds order, so
// two runs over the same corpus produce records in the same order.
func Calibrate(ctx context.Context, cfg CalibrateConfig) ([]ModelProfile, error) {
	scns, err := cfg.scenarios()
	if err != nil {
		return nil, err
	}
	hash, err := cfg.ProbeHash()
	if err != nil {
		return nil, err
	}
	models := cfg.Models
	if len(models) == 0 {
		models = llm.PaperModels()
	}
	models = append([]string(nil), models...)
	sort.Strings(models)

	var records []ModelProfile
	for _, model := range models {
		client, err := cfg.client(model)
		if err != nil {
			return nil, fmt.Errorf("route: calibrating %s: %w", model, err)
		}
		for _, task := range llm.TaskKinds() {
			score, latency, probes, err := cfg.probeTask(ctx, task, client, scns)
			if err != nil {
				return nil, fmt.Errorf("route: probing %s/%s: %w", model, task, err)
			}
			cfg.logf("calibrate %-14s %-12s score=%.2f probes=%d", model, task, score, probes)
			records = append(records, ModelProfile{
				Model:        model,
				Task:         task,
				Score:        score,
				AvgLatencyNS: latency,
				CostWeight:   cfg.cost(model),
				Probes:       probes,
				ProbeHash:    hash,
				CalibratedAt: time.Now().UTC(),
			})
		}
	}
	return records, nil
}

// probeTask runs one (model, task) probe set and aggregates the scores.
func (cfg CalibrateConfig) probeTask(ctx context.Context, task llm.TaskKind, client llm.Client, scns []eval.Scenario) (score float64, avgLatencyNS int64, probes int, err error) {
	var total float64
	var elapsed time.Duration
	add := func(s float64, d time.Duration) {
		total += s
		elapsed += d
		probes++
	}
	for _, scn := range scns {
		start := time.Now()
		var s float64
		switch task {
		case llm.TaskWrite:
			s, err = cfg.probeWrite(ctx, client, scn)
		case llm.TaskEditIntent:
			s, err = cfg.probeEditIntent(ctx, client, scn)
		case llm.TaskPlanDelta:
			s, err = cfg.probePlanDelta(ctx, client, scn)
		case llm.TaskPlanRepair:
			s, err = cfg.probePlanRepair(ctx, client, scn)
		default:
			err = fmt.Errorf("no probe for task %q", task)
		}
		if err != nil {
			return 0, 0, 0, err
		}
		add(s, time.Since(start))
	}
	if probes == 0 {
		return 0, 0, 0, fmt.Errorf("empty probe corpus")
	}
	return total / float64(probes), int64(elapsed) / int64(probes), probes, nil
}

// probeWrite measures one cold write: a single unassisted completion,
// executed and scored against the scenario's ground truth.
func (cfg CalibrateConfig) probeWrite(ctx context.Context, client llm.Client, scn eval.Scenario) (float64, error) {
	cell, _, err := cfg.Eval.RunScenario(ctx, scn, client, false)
	if err != nil {
		return 0, err
	}
	score := 0.3 * cell.PlanScore.Overall
	if cell.ErrorFree {
		score += 0.4
	}
	if cell.Screenshot {
		score += 0.3
	}
	return score, nil
}

// probeEditIntent replays the rewrite stage's real prompt and scores
// the response against the reference step prompt.
func (cfg CalibrateConfig) probeEditIntent(ctx context.Context, client llm.Client, scn eval.Scenario) (float64, error) {
	w, h := probeSize(cfg.Eval)
	prompt := scn.UserPrompt(w, h)
	req := chatvis.RewriteRequest(prompt)
	req.Task = llm.TaskProbe
	resp, err := client.Complete(ctx, req)
	if err != nil {
		return 0, err
	}
	want := llm.RenderStepPrompt(llm.ParseIntent(prompt))
	return lineOverlap(resp.Text, want), nil
}

// probePlanDelta asks the model to apply each probe utterance to the
// scenario's reference plan and scores the proposal against the intent
// applied mechanically.
func (cfg CalibrateConfig) probePlanDelta(ctx context.Context, client llm.Client, scn eval.Scenario) (float64, error) {
	ref, err := referencePlan(cfg.Eval, scn)
	if err != nil {
		return 0, err
	}
	schema := pvsim.PlanSchema()
	var total float64
	for _, utter := range probeEditUtterances {
		resp, err := client.Complete(ctx, llm.Request{
			System: llm.EditSystem,
			User:   llm.BuildPlanEditUser(ref, utter),
			Task:   llm.TaskProbe,
		})
		if err != nil {
			return 0, err
		}
		got, perr := llm.ParsePlanText(resp.Text)
		if perr != nil {
			continue // unparsable proposal scores zero
		}
		want := llm.ApplyEdits(ref, llm.ParseEditIntent(utter))
		total += plan.Similarity(plan.Normalize(got, schema), plan.Normalize(want, schema)).Overall
	}
	return total / float64(len(probeEditUtterances)), nil
}

// probePlanRepair corrupts the reference plan with an unknown property
// and scores whether the model's repair validates clean.
func (cfg CalibrateConfig) probePlanRepair(ctx context.Context, client llm.Client, scn eval.Scenario) (float64, error) {
	ref, err := referencePlan(cfg.Eval, scn)
	if err != nil {
		return 0, err
	}
	schema := pvsim.PlanSchema()
	corrupt := ref.Clone()
	st := corrupt.Stages[0]
	if st.Props == nil {
		st.Props = map[string]plan.Value{}
	}
	st.Props["BogusProbeProperty"] = plan.NumV(1)
	diags := plan.Errors(plan.Validate(corrupt, schema))
	if len(diags) == 0 {
		return 0, fmt.Errorf("probe corruption of %s produced no diagnostics", scn.ID)
	}
	resp, err := client.Complete(ctx, llm.Request{
		System: llm.EditSystem,
		User:   llm.BuildPlanDeltaRepairUser(corrupt, diags),
		Task:   llm.TaskProbe,
	})
	if err != nil {
		return 0, err
	}
	got, perr := llm.ParsePlanText(resp.Text)
	if perr != nil {
		return 0, nil
	}
	if len(plan.Errors(plan.Validate(got, schema))) > 0 {
		return 0, nil
	}
	return 1, nil
}

// referencePlan resolves a scenario's normalized ground-truth plan at
// the probe size.
func referencePlan(cfg eval.Config, scn eval.Scenario) (*plan.Plan, error) {
	w, h := probeSize(cfg)
	if ref := scn.ReferencePlan(w, h); ref != nil {
		return ref, nil
	}
	return nil, fmt.Errorf("compiling reference plan for %s failed", scn.ID)
}

func probeSize(cfg eval.Config) (int, int) {
	if cfg.Width == 0 {
		return 480, 270
	}
	return cfg.Width, cfg.Height
}

// lineOverlap scores generated text against a reference as the fraction
// of reference lines the response reproduces (1.0 for an exact match).
func lineOverlap(got, want string) float64 {
	wantLines := nonEmptyLines(want)
	if len(wantLines) == 0 {
		return 0
	}
	gotSet := map[string]bool{}
	for _, l := range nonEmptyLines(got) {
		gotSet[l] = true
	}
	hits := 0
	for _, l := range wantLines {
		if gotSet[l] {
			hits++
		}
	}
	return float64(hits) / float64(len(wantLines))
}

func nonEmptyLines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if t := strings.TrimSpace(l); t != "" {
			out = append(out, t)
		}
	}
	return out
}
