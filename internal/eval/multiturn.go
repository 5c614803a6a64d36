package eval

import (
	"context"
	"fmt"
	"image"
	"path/filepath"
	"strings"
	"time"

	"chatvis/internal/chatvis"
	"chatvis/internal/imgcmp"
	"chatvis/internal/plan"
	"chatvis/internal/pvpython"
	"chatvis/internal/pvsim"
)

// The multi-turn evaluation track: conversational scenarios where each
// turn has its own ground-truth plan, scored per turn with plan-graph
// similarity and image comparison. The scenarios are seeded from
// existing one-shot scenario pairs (iso→isovalues, clip→sliceclip,
// glyph→glyphslice): turn 1 builds the first scenario's pipeline, turn
// 2's utterance edits it into the second one's.

// TurnSpec is one turn of a multi-turn scenario.
type TurnSpec struct {
	// Utterance renders the turn's prompt at a resolution (a full
	// request on turn 1, an edit afterwards).
	Utterance func(w, h int) string
	// RefScenario names the one-shot scenario whose reference plan (and
	// ground-truth image) is this turn's ground truth.
	RefScenario string
	// RefPlan builds the ground-truth plan directly (used when no
	// one-shot scenario matches the turn).
	RefPlan func(w, h int) *plan.Plan
}

// MultiTurnScenario is one conversational evaluation case.
type MultiTurnScenario struct {
	// ID is the short machine name.
	ID string
	// Title is the report row label.
	Title string
	// Turns in conversation order.
	Turns []TurnSpec
}

// refPlanFor resolves the turn's normalized ground-truth plan.
func (ts TurnSpec) refPlanFor(w, h int) *plan.Plan {
	if ts.RefScenario != "" {
		if scn, ok := ScenarioByID(ts.RefScenario); ok {
			return scn.ReferencePlan(w, h)
		}
		return nil
	}
	if ts.RefPlan != nil {
		return plan.Normalize(ts.RefPlan(w, h), pvsim.PlanSchema())
	}
	return nil
}

// MultiTurnScenarios returns the registered conversational scenarios.
func MultiTurnScenarios() []MultiTurnScenario {
	isoPrompt := func(w, h int) string {
		scn, _ := ScenarioByID("iso")
		return scn.UserPrompt(w, h)
	}
	return []MultiTurnScenario{
		{
			ID: "iso-isovalues", Title: "Isosurface, then multi-value",
			Turns: []TurnSpec{
				{Utterance: isoPrompt, RefScenario: "iso"},
				{
					Utterance: func(w, h int) string {
						return "Change the isosurfaces to the values 0.3 and 0.7. Color the result by the var0 data array. Rotate the view to an isometric direction. Save the screenshot as 'ml-multi-iso-screenshot.png'."
					},
					RefScenario: "isovalues",
				},
			},
		},
		{
			ID: "clip-sliceclip", Title: "Clip, then slice the clip",
			Turns: []TurnSpec{
				{
					Utterance: func(w, h int) string {
						scn, _ := ScenarioByID("clip")
						return scn.UserPrompt(w, h)
					},
					RefScenario: "clip",
				},
				{
					Utterance: func(w, h int) string {
						return "Slice the clipped data in a plane parallel to the x-y plane at z=0. View the result in the +z direction. Save the screenshot as 'ml-clip-slice-screenshot.png'."
					},
					RefScenario: "sliceclip",
				},
			},
		},
		{
			ID: "glyph-glyphslice", Title: "Glyphs, then glyphs on a slice",
			Turns: []TurnSpec{
				{
					Utterance: func(w, h int) string {
						scn, _ := ScenarioByID("glyph")
						return scn.UserPrompt(w, h)
					},
					RefScenario: "glyph",
				},
				{
					Utterance: func(w, h int) string {
						return "Slice the volume in a plane parallel to the x-y plane at z=1. Put the glyphs on the slice. Save the screenshot as 'disk-slice-glyph-screenshot.png'."
					},
					RefScenario: "glyphslice",
				},
			},
		},
		{
			ID: "iso-touchup", Title: "Isosurface, then raise the value",
			Turns: []TurnSpec{
				{Utterance: isoPrompt, RefScenario: "iso"},
				{
					Utterance: func(w, h int) string {
						return "Raise the isovalue to 0.7."
					},
					RefPlan: func(w, h int) *plan.Plan {
						p := plan.New()
						reader := p.Add(sourceStage("reader", "LegacyVTKReader",
							props{"FileNames": plan.ListV(plan.StrV("ml-100.vtk"))}))
						contour := p.Add(filterStage("contour1", "Contour", reader, props{
							"ContourBy":   plan.AssocV("POINTS", "var0"),
							"Isosurfaces": plan.NumsV(0.7),
						}))
						view := p.Add(viewStage(w, h, "ResetCamera"))
						p.Add(&plan.Stage{
							Kind: plan.StageDisplay, ID: "contour1Display",
							Class: plan.DisplayClass, Inputs: []int{contour, view},
						})
						p.Add(screenshotStage(view, "ml-iso-screenshot.png", w, h))
						return p
					},
				},
			},
		},
	}
}

// TurnResult scores one turn of a conversational run.
type TurnResult struct {
	// ErrorFree: the turn completed with a working pipeline.
	ErrorFree bool
	// PlanScore is the plan-graph similarity vs the turn's ground truth.
	PlanScore plan.Score
	// Screenshot: the turn's image matches the turn's ground truth.
	Screenshot bool
	// Metrics of the turn's screenshot vs ground truth.
	Metrics imgcmp.Metrics
	// ChangedStages counts the stages the turn's plan changed vs its
	// parent.
	ChangedStages int
	// ExecutionsDelta counts the pipeline stages the session engine
	// recomputed for the turn — the incremental-execution observable.
	ExecutionsDelta int64
	// Duration is the turn's summed stage wall-clock time.
	Duration time.Duration
}

// MultiTurnResult is one scenario's full conversation outcome.
type MultiTurnResult struct {
	ID    string
	Title string
	Turns []TurnResult
}

// MultiTurnTable collects the conversational evaluation results.
type MultiTurnTable struct {
	Results  []MultiTurnResult
	MaxTurns int
}

// RunMultiTurn evaluates the assistant (base model gpt-4, plan
// validation on — the serving configuration) on every conversational
// scenario: one session per scenario, one turn per utterance, scored
// per turn against that turn's ground-truth plan and image.
func (c Config) RunMultiTurn(ctx context.Context) (*MultiTurnTable, error) {
	c = c.withDefaults()
	if err := EnsureData(c.DataDir, c.DataSize); err != nil {
		return nil, err
	}
	table := &MultiTurnTable{}
	for _, mts := range MultiTurnScenarios() {
		res, err := c.runMultiTurnScenario(ctx, mts)
		if err != nil {
			return nil, fmt.Errorf("eval: multi-turn %s: %w", mts.ID, err)
		}
		table.Results = append(table.Results, res)
		if len(res.Turns) > table.MaxTurns {
			table.MaxTurns = len(res.Turns)
		}
	}
	return table, nil
}

func (c Config) runMultiTurnScenario(ctx context.Context, mts MultiTurnScenario) (MultiTurnResult, error) {
	outDir := filepath.Join(c.OutDir, "multiturn", mts.ID)
	runner := &pvpython.Runner{DataDir: c.DataDir, OutDir: outDir}
	model, err := c.pipelineClient("gpt-4")
	if err != nil {
		return MultiTurnResult{}, err
	}
	sess, err := chatvis.NewSession(model, runner,
		chatvis.WithMaxIterations(c.MaxIterations),
		chatvis.WithFewShot(c.FewShot),
		chatvis.WithRewrite(!c.NoRewrite),
		chatvis.WithPlanValidation(true))
	if err != nil {
		return MultiTurnResult{}, err
	}
	res := MultiTurnResult{ID: mts.ID, Title: mts.Title}
	for i, ts := range mts.Turns {
		turn, err := sess.Turn(ctx, ts.Utterance(c.Width, c.Height))
		if err != nil {
			return MultiTurnResult{}, fmt.Errorf("turn %d: %w", i+1, err)
		}
		tr := TurnResult{
			ErrorFree:       turn.Artifact.Success,
			ChangedStages:   len(turn.ChangedStages),
			ExecutionsDelta: turn.ExecutionsDelta,
			Duration:        turn.Artifact.Trace.TotalDuration(),
		}
		if ref := ts.refPlanFor(c.Width, c.Height); ref != nil && turn.Artifact.Plan != nil {
			tr.PlanScore = plan.Similarity(turn.Artifact.Plan, ref)
		}
		if gt, err := c.turnGroundTruth(mts.ID, i+1, ts); err == nil && len(turn.Artifact.Screenshots) > 0 {
			tr.Screenshot, tr.Metrics = judge(gt, turn.Artifact.Screenshots, nil)
		}
		res.Turns = append(res.Turns, tr)
	}
	return res, nil
}

// turnGroundTruth renders the turn's reference image: the one-shot
// scenario's ground truth when the turn references one, else a render of
// the turn's reference plan.
func (c Config) turnGroundTruth(id string, turnNo int, ts TurnSpec) (image.Image, error) {
	if ts.RefScenario != "" {
		if scn, ok := ScenarioByID(ts.RefScenario); ok {
			return c.groundTruth(scn)
		}
	}
	ref := ts.refPlanFor(c.Width, c.Height)
	if ref == nil {
		return nil, fmt.Errorf("eval: turn has no ground truth")
	}
	gtOut := filepath.Join(c.OutDir, "ground_truth", fmt.Sprintf("%s-t%d", id, turnNo))
	runner := &pvpython.Runner{DataDir: c.DataDir, OutDir: gtOut}
	res := runner.Exec(ref.Script())
	if !res.OK() || len(res.Screenshots) == 0 {
		return nil, fmt.Errorf("eval: turn ground truth failed:\n%s", res.Output)
	}
	path := res.Screenshots[len(res.Screenshots)-1]
	if img := res.Engine.Rendered[path]; img != nil {
		return img, nil
	}
	return nil, fmt.Errorf("eval: turn ground truth rendered nothing")
}

// Format renders the multi-turn table with per-turn plan-similarity
// columns (the report's conversational accuracy view).
func (t *MultiTurnTable) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s", "Conversation")
	for i := 1; i <= t.MaxTurns; i++ {
		fmt.Fprintf(&b, "| turn %d plan-sim  ", i)
	}
	b.WriteString("| re-exec (t2+)\n")
	b.WriteString(strings.Repeat("-", 34+t.MaxTurns*19+15) + "\n")
	for _, r := range t.Results {
		fmt.Fprintf(&b, "%-34s", r.Title)
		for i := 0; i < t.MaxTurns; i++ {
			if i < len(r.Turns) {
				fmt.Fprintf(&b, "| %-16.2f ", r.Turns[i].PlanScore.Overall)
			} else {
				fmt.Fprintf(&b, "| %-16s ", "-")
			}
		}
		var deltas []string
		for _, tr := range r.Turns[1:] {
			deltas = append(deltas, fmt.Sprintf("%d", tr.ExecutionsDelta))
		}
		fmt.Fprintf(&b, "| %s\n", strings.Join(deltas, ","))
	}
	return b.String()
}
