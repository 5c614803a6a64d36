package eval

import (
	"context"
	"fmt"
	"image"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"chatvis/internal/chatvis"
	"chatvis/internal/imgcmp"
	"chatvis/internal/llm"
	"chatvis/internal/plan"
	"chatvis/internal/pvpython"
	"chatvis/internal/pvsim"
	"chatvis/internal/render"
)

// ChatVisModel is the grid column name for the assisted condition (the
// paper's own system, backed by gpt-4).
const ChatVisModel = "ChatVis"

// Config drives a harness run.
type Config struct {
	// DataDir holds (or will receive) the input datasets.
	DataDir string
	// OutDir receives screenshots and reports.
	OutDir string
	// Width, Height of rendered views (the paper uses 1920x1080; tests
	// and benchmarks use smaller).
	Width, Height int
	// DataSize selects dataset resolution.
	DataSize DataSize
	// MaxIterations for the ChatVis loop (default 5).
	MaxIterations int
	// FewShot truncates the assistant's example library (0 = full,
	// negative = none); used by the ablation benchmarks.
	FewShot int
	// NoRewrite disables the prompt-generation stage (ablation).
	NoRewrite bool
	// NewClient overrides how cells obtain the client for a named model
	// (default llm.NewModel) — middleware or stub injection.
	NewClient func(model string) (llm.Client, error)
	// PipelineClient overrides the client of the *assisted* cells (the
	// ChatVis column and the multi-turn track), where the model is the
	// system's choice rather than the experiment's variable — this is
	// where a routing client plugs in. The argument is the pipeline's
	// default base model ("gpt-4"). Default: NewClient.
	PipelineClient func(defaultModel string) (llm.Client, error)
}

// clientFor resolves a named model through the NewClient hook.
func (c Config) clientFor(model string) (llm.Client, error) {
	if c.NewClient != nil {
		return c.NewClient(model)
	}
	return llm.NewModel(model)
}

// pipelineClient resolves the assisted pipeline's client.
func (c Config) pipelineClient(defaultModel string) (llm.Client, error) {
	if c.PipelineClient != nil {
		return c.PipelineClient(defaultModel)
	}
	return c.clientFor(defaultModel)
}

func (c Config) withDefaults() Config {
	if c.Width == 0 {
		c.Width, c.Height = 480, 270
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 5
	}
	return c
}

// CellResult is one (model, task) evaluation outcome — one cell pair of
// the paper's Table II.
type CellResult struct {
	Model string
	Task  string
	// ErrorFree: the script executed without syntax or runtime errors
	// (Table II "Error" column, inverted).
	ErrorFree bool
	// Screenshot: a screenshot was produced AND matches ground truth
	// (Table II "SS" column; the paper judges correctness visually, we
	// judge by image comparison).
	Screenshot bool
	// Iterations the ChatVis loop used (1 for unassisted models).
	Iterations int
	// Metrics of the final screenshot vs ground truth (zero value when no
	// screenshot).
	Metrics imgcmp.Metrics
	// PlanScore is the plan-graph similarity of the final script's
	// compiled plan against the reference plan: the paper's proposed
	// code-level evaluation that works "even without visual output" (§V
	// future work), insensitive to variable naming and statement order.
	// A script that does not parse has no plan and scores 0.
	PlanScore plan.Score
	// FirstError summarizes the first extracted error, if any.
	FirstError string
	// Duration is the session's summed stage wall-clock time, from the
	// artifact trace.
	Duration time.Duration
	// Usage is the session's summed LLM usage, from the artifact trace.
	Usage llm.Usage
	// LLMCalls counts model invocations the session consumed.
	LLMCalls int
	// Models are the distinct serving models of the session's stages in
	// first-use order. One entry when a single model served everything;
	// several when a router split the stages by task.
	Models []string
}

// groundTruth runs the reference script for a scenario and returns the
// rendered image. Output goes to a per-scenario directory so concurrent
// renders of different scenarios never share a working dir.
func (c Config) groundTruth(scn Scenario) (image.Image, error) {
	gtOut := filepath.Join(c.OutDir, "ground_truth", scn.ID)
	runner := &pvpython.Runner{DataDir: c.DataDir, OutDir: gtOut}
	res := runner.Exec(scn.GroundTruthScript(c.Width, c.Height))
	if !res.OK() {
		return nil, fmt.Errorf("eval: ground truth for %s failed:\n%s", scn.ID, res.Output)
	}
	if len(res.Screenshots) == 0 {
		return nil, fmt.Errorf("eval: ground truth for %s produced no screenshot", scn.ID)
	}
	path := res.Screenshots[len(res.Screenshots)-1]
	img := res.Engine.Rendered[path]
	if img == nil {
		return render.LoadPNG(path)
	}
	return img, nil
}

// judge compares a produced screenshot against ground truth.
func judge(gt image.Image, screenshots []string, rendered map[string]*image.RGBA) (bool, imgcmp.Metrics) {
	if len(screenshots) == 0 {
		return false, imgcmp.Metrics{}
	}
	path := screenshots[len(screenshots)-1]
	var img image.Image = rendered[path]
	if rendered[path] == nil {
		loaded, err := render.LoadPNG(path)
		if err != nil {
			return false, imgcmp.Metrics{}
		}
		img = loaded
	}
	m, err := imgcmp.Compare(gt, img)
	if err != nil {
		return false, imgcmp.Metrics{}
	}
	return imgcmp.MatchesGroundTruth(m, gt, img), m
}

// fillFromArtifact copies the outcome and trace totals of one session
// into a cell.
func (cell *CellResult) fillFromArtifact(c Config, scn Scenario, gt image.Image, art *chatvis.Artifact) {
	cell.ErrorFree = art.Success
	cell.Iterations = art.NumIterations()
	cell.Duration = art.Trace.TotalDuration()
	cell.Usage = art.Trace.TotalUsage()
	cell.LLMCalls = art.Trace.LLMCalls()
	cell.Models = art.Trace.Models()
	if len(art.Screenshots) > 0 {
		cell.Screenshot, cell.Metrics = judge(gt, art.Screenshots, nil)
	}
	if !art.Success && len(art.Iterations) > 0 {
		last := art.Iterations[len(art.Iterations)-1]
		if len(last.Errors) > 0 {
			cell.FirstError = last.Errors[0].Kind
		}
	}
	if art.Plan != nil {
		if ref := scn.ReferencePlan(c.Width, c.Height); ref != nil {
			cell.PlanScore = plan.Similarity(art.Plan, ref)
		}
	}
}

// refPlanCache shares reference plans across grid cells (like the
// ground-truth image cache, but process-wide: plans are tiny, immutable
// and purely derived from scenario + resolution).
var refPlanCache sync.Map // "id@WxH" -> *plan.Plan

// ReferencePlan returns the scenario's normalized reference plan: the
// native IR when the scenario is plan-native, the compiled ground-truth
// script otherwise (nil if that does not parse). The plan is shared:
// callers must not modify it.
func (s Scenario) ReferencePlan(w, h int) *plan.Plan {
	key := fmt.Sprintf("%s@%dx%d", s.ID, w, h)
	if cached, ok := refPlanCache.Load(key); ok {
		return cached.(*plan.Plan)
	}
	schema := pvsim.PlanSchema()
	var ref *plan.Plan
	if p := s.PlanIR(w, h); p != nil {
		ref = plan.Normalize(p, schema)
	} else {
		compiled, err := plan.Compile(s.GroundTruthScript(w, h), schema)
		if err != nil {
			return nil
		}
		ref = plan.Normalize(compiled.Plan, schema)
	}
	refPlanCache.Store(key, ref)
	return ref
}

// runCell evaluates one (model, scenario) grid cell: ChatVisModel runs
// the assistant, any other name runs the bare model. The ground truth
// comes from the shared cache; outDir isolates the cell's screenshots.
func (c Config) runCell(ctx context.Context, scn Scenario, modelName string, gts *groundTruthCache, outDir string) (CellResult, *chatvis.Artifact, error) {
	gt, err := gts.get(c, scn)
	if err != nil {
		return CellResult{}, nil, err
	}
	cell := CellResult{Model: modelName, Task: scn.Row}
	var model llm.Client
	if modelName == ChatVisModel {
		model, err = c.pipelineClient("gpt-4")
	} else {
		model, err = c.clientFor(modelName)
	}
	if err != nil {
		return CellResult{}, nil, err
	}
	art, err := c.runScenario(ctx, scn, model, modelName == ChatVisModel, outDir)
	if err != nil {
		return CellResult{}, nil, err
	}
	cell.fillFromArtifact(c, scn, gt, art)
	return cell, art, nil
}

// runScenario executes one scenario against an explicit client.
func (c Config) runScenario(ctx context.Context, scn Scenario, model llm.Client, assisted bool, outDir string) (*chatvis.Artifact, error) {
	runner := &pvpython.Runner{DataDir: c.DataDir, OutDir: outDir}
	if !assisted {
		return chatvis.Unassisted(ctx, model, runner, scn.UserPrompt(c.Width, c.Height))
	}
	assistant, err := chatvis.NewAssistant(model, runner,
		chatvis.WithMaxIterations(c.MaxIterations),
		chatvis.WithFewShot(c.FewShot),
		chatvis.WithRewrite(!c.NoRewrite))
	if err != nil {
		return nil, err
	}
	return assistant.Run(ctx, scn.UserPrompt(c.Width, c.Height))
}

// RunScenario evaluates one scenario with an explicit client — the
// probe entry point of the route calibrator (assisted exercises the
// full loop, unassisted the bare model). Datasets are prepared on
// demand; the scenario's ground truth renders into OutDir.
func (c Config) RunScenario(ctx context.Context, scn Scenario, model llm.Client, assisted bool) (CellResult, *chatvis.Artifact, error) {
	c = c.withDefaults()
	if err := EnsureData(c.DataDir, c.DataSize); err != nil {
		return CellResult{}, nil, err
	}
	gt, err := c.groundTruth(scn)
	if err != nil {
		return CellResult{}, nil, err
	}
	cell := CellResult{Model: model.Name(), Task: scn.Row}
	art, err := c.runScenario(ctx, scn, model, assisted,
		filepath.Join(c.OutDir, "probe", model.Name(), scn.ID))
	if err != nil {
		return CellResult{}, nil, err
	}
	cell.fillFromArtifact(c, scn, gt, art)
	return cell, art, nil
}

// RunChatVis evaluates the assistant (base model gpt-4) on one scenario.
func (c Config) RunChatVis(ctx context.Context, scn Scenario) (CellResult, *chatvis.Artifact, error) {
	c = c.withDefaults()
	if err := EnsureData(c.DataDir, c.DataSize); err != nil {
		return CellResult{}, nil, err
	}
	return c.runCell(ctx, scn, ChatVisModel, newGroundTruthCache(),
		filepath.Join(c.OutDir, "chatvis", scn.ID))
}

// RunUnassisted evaluates a bare model on one scenario.
func (c Config) RunUnassisted(ctx context.Context, modelName string, scn Scenario) (CellResult, *chatvis.Artifact, error) {
	c = c.withDefaults()
	if err := EnsureData(c.DataDir, c.DataSize); err != nil {
		return CellResult{}, nil, err
	}
	return c.runCell(ctx, scn, modelName, newGroundTruthCache(),
		filepath.Join(c.OutDir, modelName, scn.ID))
}

// Table2 holds the full comparison grid of the paper's Table II.
type Table2 struct {
	// Models in column order (ChatVis first, like the paper).
	Models []string
	// Tasks in row order.
	Tasks []string
	// Cells indexed [task][model].
	Cells map[string]map[string]CellResult
}

// Format renders the grid in the paper's layout: per model, an Error
// column ("No" is good) and an SS column ("Yes" is good).
func (t *Table2) Format() string {
	var b strings.Builder
	yn := func(v bool) string {
		if v {
			return "Yes"
		}
		return "No"
	}
	fmt.Fprintf(&b, "%-26s", "Visualizations")
	for _, m := range t.Models {
		fmt.Fprintf(&b, "| %-22s", m)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-26s", "")
	for range t.Models {
		fmt.Fprintf(&b, "| %-10s %-11s", "Error", "SS")
	}
	b.WriteString("\n")
	b.WriteString(strings.Repeat("-", 26+len(t.Models)*24) + "\n")
	for _, task := range t.Tasks {
		fmt.Fprintf(&b, "%-26s", task)
		for _, m := range t.Models {
			cell := t.Cells[task][m]
			fmt.Fprintf(&b, "| %-10s %-11s", yn(!cell.ErrorFree), yn(cell.Screenshot))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FormatStats renders the per-cell session traces: duration, LLM calls
// and token usage for every grid cell.
func (t *Table2) FormatStats() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %-14s %12s %6s %8s %6s\n",
		"task", "model", "duration", "calls", "tokens", "iters")
	for _, task := range t.Tasks {
		for _, m := range t.Models {
			cell := t.Cells[task][m]
			fmt.Fprintf(&b, "%-26s %-14s %12s %6d %8d %6d",
				task, m, cell.Duration.Round(time.Microsecond),
				cell.LLMCalls, cell.Usage.TotalTokens(), cell.Iterations)
			// Annotate only routed cells (several serving models), so the
			// output is byte-identical to earlier builds when routing is off.
			if len(cell.Models) > 1 {
				fmt.Fprintf(&b, "  models=%s", strings.Join(cell.Models, ","))
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// Table1 pairs the ChatVis and unassisted GPT-4 streamline scripts, as in
// the paper's Table I.
type Table1 struct {
	ChatVisScript string
	GPT4Script    string
	// ChatVisOK / GPT4Error summarize the execution outcomes.
	ChatVisOK bool
	GPT4Error string
}

// RunTable1 regenerates Table I: both generated scripts for the
// streamline-tracing task.
func (c Config) RunTable1(ctx context.Context) (*Table1, error) {
	c = c.withDefaults()
	scn, _ := ScenarioByID("stream")
	t1 := &Table1{}
	cvCell, cvArt, err := c.RunChatVis(ctx, scn)
	if err != nil {
		return nil, err
	}
	t1.ChatVisScript = cvArt.FinalScript
	t1.ChatVisOK = cvCell.ErrorFree
	g4Cell, g4Art, err := c.RunUnassisted(ctx, "gpt-4", scn)
	if err != nil {
		return nil, err
	}
	t1.GPT4Script = g4Art.FinalScript
	if !g4Cell.ErrorFree {
		t1.GPT4Error = g4Cell.FirstError
		if len(g4Art.Iterations) > 0 && len(g4Art.Iterations[0].Errors) > 0 {
			e := g4Art.Iterations[0].Errors[0]
			t1.GPT4Error = e.Kind + ": " + e.Message
		}
	}
	return t1, nil
}

// Format renders the two scripts side by side (stacked, for plain text).
func (t *Table1) Format() string {
	var b strings.Builder
	b.WriteString("=== ChatVis (left column of Table I) ===\n")
	b.WriteString(t.ChatVisScript)
	fmt.Fprintf(&b, "\n[executes cleanly: %v]\n\n", t.ChatVisOK)
	b.WriteString("=== GPT-4 unassisted (right column of Table I) ===\n")
	b.WriteString(t.GPT4Script)
	fmt.Fprintf(&b, "\n[fails with: %s]\n", t.GPT4Error)
	return b.String()
}

// FigureResult is one reproduced figure: ground truth vs ChatVis (and for
// Fig. 2, GPT-4's image as well).
type FigureResult struct {
	Figure  string
	Task    string
	ChatVis imgcmp.Metrics
	// ChatVisMatches is the SS judgement vs ground truth.
	ChatVisMatches bool
	// GPT4 metrics are only populated for scenarios where unassisted
	// GPT-4 produces an image (isosurfacing, volume rendering).
	GPT4        *imgcmp.Metrics
	GPT4Matches bool
}

// RunFigure reproduces one figure's image set. Both conditions share one
// ground-truth render.
func (c Config) RunFigure(ctx context.Context, scn Scenario) (*FigureResult, error) {
	c = c.withDefaults()
	if err := EnsureData(c.DataDir, c.DataSize); err != nil {
		return nil, err
	}
	gts := newGroundTruthCache()
	fr := &FigureResult{Figure: scn.Figure, Task: scn.Row}
	cell, _, err := c.runCell(ctx, scn, ChatVisModel, gts,
		filepath.Join(c.OutDir, "chatvis", scn.ID))
	if err != nil {
		return nil, err
	}
	fr.ChatVis = cell.Metrics
	fr.ChatVisMatches = cell.Screenshot
	g4, _, err := c.runCell(ctx, scn, "gpt-4", gts,
		filepath.Join(c.OutDir, "gpt-4", scn.ID))
	if err != nil {
		return nil, err
	}
	if g4.ErrorFree && g4.Metrics != (imgcmp.Metrics{}) {
		m := g4.Metrics
		fr.GPT4 = &m
		fr.GPT4Matches = g4.Screenshot
	}
	return fr, nil
}

// WriteReport renders a Table II grid, per-figure metrics, the
// multi-turn conversational track and the routing table into a
// markdown file. Any section may be nil.
func WriteReport(path string, t2 *Table2, t1 *Table1, figs []*FigureResult, mt *MultiTurnTable, routing *RoutingTable) error {
	var b strings.Builder
	b.WriteString("# ChatVis reproduction — measured results\n\n")
	b.WriteString("## Table II: LLM comparison (Error = syntax/runtime error, SS = correct screenshot)\n\n```\n")
	b.WriteString(t2.Format())
	b.WriteString("```\n\n")
	b.WriteString("## Session traces (duration, LLM calls, token usage per cell)\n\n```\n")
	b.WriteString(t2.FormatStats())
	b.WriteString("```\n\n")
	if t1 != nil {
		b.WriteString("## Table I: generated streamline scripts\n\n```\n")
		b.WriteString(t1.Format())
		b.WriteString("```\n\n")
	}
	if len(figs) > 0 {
		b.WriteString("## Figures 2-6: image comparison vs ground truth\n\n")
		b.WriteString("| Figure | Task | ChatVis vs GT | match | GPT-4 vs GT | match |\n")
		b.WriteString("|---|---|---|---|---|---|\n")
		for _, f := range figs {
			gpt := "no image"
			gptMatch := "-"
			if f.GPT4 != nil {
				gpt = f.GPT4.String()
				gptMatch = fmt.Sprintf("%v", f.GPT4Matches)
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %v | %s | %s |\n",
				f.Figure, f.Task, f.ChatVis.String(), f.ChatVisMatches, gpt, gptMatch)
		}
	}
	if t2 != nil {
		b.WriteString("\n## Plan-graph accuracy (typed pipeline-DAG similarity to reference)\n\n")
		b.WriteString("| Task |")
		for _, m := range t2.Models {
			fmt.Fprintf(&b, " %s |", m)
		}
		b.WriteString("\n|---|")
		for range t2.Models {
			b.WriteString("---|")
		}
		b.WriteString("\n")
		for _, task := range t2.Tasks {
			fmt.Fprintf(&b, "| %s |", task)
			for _, m := range t2.Models {
				fmt.Fprintf(&b, " %.2f |", t2.Cells[task][m].PlanScore.Overall)
			}
			b.WriteString("\n")
		}
	}
	if mt != nil && len(mt.Results) > 0 {
		b.WriteString("\n## Multi-turn conversations (per-turn plan similarity; re-exec = stages recomputed per edit turn)\n\n")
		b.WriteString("| Conversation |")
		for i := 1; i <= mt.MaxTurns; i++ {
			fmt.Fprintf(&b, " turn %d plan-sim |", i)
		}
		b.WriteString(" turn 2+ re-exec | screenshots |\n|---|")
		for i := 0; i < mt.MaxTurns; i++ {
			b.WriteString("---|")
		}
		b.WriteString("---|---|\n")
		for _, r := range mt.Results {
			fmt.Fprintf(&b, "| %s |", r.Title)
			for i := 0; i < mt.MaxTurns; i++ {
				if i < len(r.Turns) {
					fmt.Fprintf(&b, " %.2f |", r.Turns[i].PlanScore.Overall)
				} else {
					b.WriteString(" - |")
				}
			}
			var deltas, shots []string
			for _, tr := range r.Turns[1:] {
				deltas = append(deltas, fmt.Sprintf("%d", tr.ExecutionsDelta))
			}
			for _, tr := range r.Turns {
				shots = append(shots, fmt.Sprintf("%v", tr.Screenshot))
			}
			fmt.Fprintf(&b, " %s | %s |\n", strings.Join(deltas, ","), strings.Join(shots, ","))
		}
	}
	if routing != nil && len(routing.Rows) > 0 {
		b.WriteString("\n## Model routing (per-task primary, measured score vs. bar, escalations)\n\n")
		b.WriteString(routing.Format())
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
