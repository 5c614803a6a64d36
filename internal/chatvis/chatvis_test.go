package chatvis

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chatvis/internal/datagen"
	"chatvis/internal/llm"
	"chatvis/internal/pvpython"
	"chatvis/internal/pvsim"
	"chatvis/internal/vtkio"
)

// The paper's five user prompts (small resolution for test speed; the
// full-resolution versions live in internal/eval).
func testPrompts() map[string]string {
	res := "480 x 270 pixels"
	return map[string]string{
		"isosurface":    `Please generate a ParaView Python script for the following operations. Read in the file named ml-100.vtk. Generate an isosurface of the variable var0 at value 0.5. Save a screenshot of the result in the filename ml-iso-screenshot.png. The rendered view and saved screenshot should be ` + res + `.`,
		"slice-contour": `Please generate a ParaView Python script for the following operations. Read in the file named 'ml-100.vtk'. Slice the volume in a plane parallel to the y-z plane at x=0. Take a contour through the slice at the value 0.5. Color the contour red. Rotate the view to look at the +x direction. Save a screenshot of the result in the filename 'ml-slice-iso-screenshot.png'. The rendered view and saved screenshot should be ` + res + `.`,
		"volume":        `Please generate a ParaView Python script for the following operations. Read in the file named 'ml-100.vtk'. Generate a volume rendering using the default transfer function. Rotate the view to an isometric direction. Save a screenshot of the result in the filename 'ml-dvr-screenshot.png'. The rendered view and saved screenshot should be ` + res + `.`,
		"delaunay":      `Please generate a ParaView Python script for the following operations. Read in the file named 'can_points.ex2'. Generate a 3d Delaunay triangulation of the dataset. Clip the data with a y-z plane at x=0, keeping the -x half of the data and removing the +x half. Render the image as a wireframe. View the result in an isometric view. Save a screenshot of the result in the filename 'points-surf-clip-screenshot.png'. The rendered view and saved screenshot should be ` + res + `.`,
		"streamlines":   `Please generate a ParaView Python script for the following operations. Read in the file named 'disk.ex2'. Trace streamlines of the V data array seeded from a default point cloud. Render the streamlines with tubes. Add cone glyphs to the streamlines. Color the streamlines and glyphs by the Temp data array. View the result in the +X direction. Save a screenshot of the result in the filename 'stream-glyph-screenshot.png'. The rendered view and saved screenshot should be ` + res + `.`,
	}
}

func testRunner(t *testing.T) *pvpython.Runner {
	t.Helper()
	dataDir := t.TempDir()
	if err := vtkio.SaveLegacyVTK(filepath.Join(dataDir, "ml-100.vtk"), datagen.MarschnerLobb(24), "ml"); err != nil {
		t.Fatal(err)
	}
	if err := vtkio.SaveExodus(filepath.Join(dataDir, "can_points.ex2"), datagen.CanPoints(24, 10), "can"); err != nil {
		t.Fatal(err)
	}
	if err := vtkio.SaveExodus(filepath.Join(dataDir, "disk.ex2"), datagen.DiskFlow(6, 24, 6), "disk"); err != nil {
		t.Fatal(err)
	}
	return &pvpython.Runner{DataDir: dataDir, OutDir: t.TempDir()}
}

func newAssistant(t *testing.T, modelName string) *Assistant {
	t.Helper()
	model, err := llm.NewModel(modelName)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAssistant(model, testRunner(t), WithMaxIterations(5))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestChatVisSucceedsOnAllFiveTasks reproduces the ChatVis column of the
// paper's Table II: no errors and a screenshot on every task.
func TestChatVisSucceedsOnAllFiveTasks(t *testing.T) {
	for task, prompt := range testPrompts() {
		t.Run(task, func(t *testing.T) {
			a := newAssistant(t, "gpt-4")
			art, err := a.Run(context.Background(), prompt)
			if err != nil {
				t.Fatal(err)
			}
			if !art.Success {
				last := art.Iterations[len(art.Iterations)-1]
				t.Fatalf("ChatVis failed after %d iterations.\nScript:\n%s\nOutput:\n%s",
					art.NumIterations(), last.Script, last.Output)
			}
			if len(art.Screenshots) == 0 {
				t.Fatal("no screenshot produced")
			}
			if art.GeneratedPrompt == art.UserPrompt {
				t.Error("prompt rewriting did not run")
			}
			if !strings.Contains(art.GeneratedPrompt, "step-by-step") {
				t.Errorf("generated prompt = %q", art.GeneratedPrompt)
			}
		})
	}
}

// TestChatVisLoopDoesRealWork: some tasks must need >1 iteration (the
// correction loop is the paper's core mechanism, not dead code).
func TestChatVisLoopDoesRealWork(t *testing.T) {
	multi := 0
	for task, prompt := range testPrompts() {
		a := newAssistant(t, "gpt-4")
		art, err := a.Run(context.Background(), prompt)
		if err != nil {
			t.Fatal(err)
		}
		if !art.Success {
			t.Fatalf("%s failed", task)
		}
		if art.NumIterations() > 1 {
			multi++
			// The first iteration must have carried a genuine extracted
			// error that the repair then removed.
			if len(art.Iterations[0].Errors) == 0 {
				t.Errorf("%s: iteration 1 has no extracted errors", task)
			}
			if art.Iterations[0].Script == art.FinalScript {
				t.Errorf("%s: script did not change across iterations", task)
			}
		}
	}
	if multi == 0 {
		t.Error("no task exercised the correction loop")
	}
}

// TestUnassistedGPT4MatchesPaper reproduces the GPT-4 column of Table II:
// error-free only on isosurfacing and volume rendering; screenshots only
// from those two (volume's screenshot is wrong, judged later by imgcmp).
func TestUnassistedGPT4MatchesPaper(t *testing.T) {
	model, _ := llm.NewModel("gpt-4")
	wantErrorFree := map[string]bool{
		"isosurface":    true,
		"slice-contour": false,
		"volume":        true,
		"delaunay":      false,
		"streamlines":   false,
	}
	for task, prompt := range testPrompts() {
		runner := testRunner(t)
		art, err := Unassisted(context.Background(), model, runner, prompt)
		if err != nil {
			t.Fatal(err)
		}
		if art.Success != wantErrorFree[task] {
			t.Errorf("%s: error-free = %v, want %v\noutput:\n%s",
				task, art.Success, wantErrorFree[task],
				art.Iterations[0].Output)
		}
	}
}

// TestUnassistedWeakModelsAllSyntaxError reproduces the remaining Table II
// columns: every other model fails with syntax errors on every task.
func TestUnassistedWeakModelsAllSyntaxError(t *testing.T) {
	for _, name := range []string{"gpt-3.5-turbo", "llama3-8b", "codellama-7b", "codegemma"} {
		model, _ := llm.NewModel(name)
		for task, prompt := range testPrompts() {
			runner := testRunner(t)
			art, err := Unassisted(context.Background(), model, runner, prompt)
			if err != nil {
				t.Fatal(err)
			}
			if art.Success {
				t.Errorf("%s on %s: unexpectedly succeeded", name, task)
				continue
			}
			if len(art.Screenshots) != 0 {
				t.Errorf("%s on %s: produced a screenshot despite failure", name, task)
			}
			hasSyntax := false
			for _, e := range art.Iterations[0].Errors {
				if e.Kind == "SyntaxError" {
					hasSyntax = true
				}
			}
			if !hasSyntax {
				t.Errorf("%s on %s: expected SyntaxError, got %+v",
					name, task, art.Iterations[0].Errors)
			}
		}
	}
}

// TestUnassistedGPT4StreamlineMatchesTableI checks the characteristic
// failure of the paper's Table I right-hand script.
func TestUnassistedGPT4StreamlineMatchesTableI(t *testing.T) {
	model, _ := llm.NewModel("gpt-4")
	runner := testRunner(t)
	art, err := Unassisted(context.Background(), model, runner, testPrompts()["streamlines"])
	if err != nil {
		t.Fatal(err)
	}
	if art.Success {
		t.Fatal("unassisted GPT-4 should fail on streamlines")
	}
	if !strings.Contains(art.FinalScript, "glyph.Scalars") {
		t.Error("script should contain the hallucinated Glyph.Scalars")
	}
	found := false
	for _, e := range art.Iterations[0].Errors {
		if e.Kind == "AttributeError" && strings.Contains(e.Message, "Scalars") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected the Glyph.Scalars AttributeError, got %+v", art.Iterations[0].Errors)
	}
}

// TestChatVisWithWeakBaseModel: the loop rescues gpt-3.5's paren defect
// (repair skill 1 strips it), demonstrating the assistant helps weaker
// models too — but models with no repair skill stall.
func TestChatVisAssistsWeakerModels(t *testing.T) {
	a := newAssistant(t, "gpt-3.5-turbo")
	art, err := a.Run(context.Background(), testPrompts()["isosurface"])
	if err != nil {
		t.Fatal(err)
	}
	if art.NumIterations() < 2 {
		t.Errorf("expected the loop to iterate, got %d", art.NumIterations())
	}
	// llama3 (repair skill 0) cannot progress: loop stops early without
	// success.
	b := newAssistant(t, "llama3-8b")
	art2, err := b.Run(context.Background(), testPrompts()["isosurface"])
	if err != nil {
		t.Fatal(err)
	}
	if art2.Success {
		// Fence stripping by the assistant may rescue the script even
		// without model repair skill; that is legitimate assistant
		// preprocessing. Accept either outcome but require screenshots
		// when successful.
		if len(art2.Screenshots) == 0 {
			t.Error("successful run must produce screenshots")
		}
	}
}

func TestAssistantDefaults(t *testing.T) {
	model, _ := llm.NewModel("oracle")
	a, err := NewAssistant(model, testRunner(t))
	if err != nil {
		t.Fatal(err)
	}
	if a.opt.maxIterations != 5 {
		t.Errorf("default maxIterations = %d", a.opt.maxIterations)
	}
	if !a.opt.rewritePrompt {
		t.Error("rewrite should default on")
	}
	if _, err := NewAssistant(nil, testRunner(t)); err == nil {
		t.Error("missing model should error")
	}
	if _, err := NewAssistant(model, nil); err == nil {
		t.Error("missing runner should error")
	}
	// Options apply and clamp.
	b, err := NewAssistant(model, testRunner(t),
		WithMaxIterations(0), WithFewShot(-1), WithRewrite(false), WithAPIReference("docs"))
	if err != nil {
		t.Fatal(err)
	}
	if b.opt.maxIterations != 1 {
		t.Errorf("WithMaxIterations(0) should clamp to 1, got %d", b.opt.maxIterations)
	}
	if b.opt.fewShot != -1 || b.opt.rewritePrompt || b.opt.apiReference != "docs" {
		t.Errorf("options not applied: %+v", b.opt)
	}
}

func TestCleanScript(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{
			name: "fenced with surrounding prose",
			in:   "Here is your script:\n```python\nx = 1\n```\nHope this helps!\n",
			want: "x = 1\n",
		},
		{
			name: "plain script passes through",
			in:   "x = 1\n",
			want: "x = 1\n",
		},
		{
			name: "plain script gains trailing newline",
			in:   "x = 1",
			want: "x = 1\n",
		},
		{
			name: "unterminated opening fence keeps the payload",
			in:   "Sure, here you go:\n```python\nx = 1\ny = 2\n",
			want: "x = 1\ny = 2\n",
		},
		{
			name: "stray lone closing fence keeps the payload",
			in:   "x = 1\ny = 2\n```\n",
			want: "x = 1\ny = 2\n",
		},
		{
			name: "two blocks keep both payloads",
			in:   "First:\n```\nx = 1\n```\nthen:\n```\ny = 2\n```\ndone\n",
			want: "x = 1\ny = 2\n",
		},
		{
			name: "balanced pair plus unterminated trailer",
			in:   "```\nx = 1\n```\nand also:\n```python\ny = 2\n",
			want: "x = 1\ny = 2\n",
		},
		{
			name: "empty response",
			in:   "",
			want: "\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := CleanScript(tc.in); got != tc.want {
				t.Errorf("CleanScript(%q) = %q, want %q", tc.in, got, tc.want)
			}
		})
	}
}

// TestArtifactTraceRecordsStages: every session carries a per-stage trace
// with durations and usage — the substrate the eval grid and the CLIs
// surface.
func TestArtifactTraceRecordsStages(t *testing.T) {
	a := newAssistant(t, "gpt-4")
	art, err := a.Run(context.Background(), testPrompts()["streamlines"])
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Trace.Stages) == 0 {
		t.Fatal("trace is empty")
	}
	if art.Trace.Stages[0].Stage != StageRewrite {
		t.Errorf("first stage = %q, want rewrite", art.Trace.Stages[0].Stage)
	}
	if art.Trace.Stages[1].Stage != StageGenerate {
		t.Errorf("second stage = %q, want generate", art.Trace.Stages[1].Stage)
	}
	execs, repairs := 0, 0
	for _, s := range art.Trace.Stages {
		if strings.HasPrefix(s.Stage, StageExec) {
			execs++
			if s.Model != "" || s.Usage.TotalTokens() != 0 {
				t.Errorf("exec stage carries LLM fields: %+v", s)
			}
		}
		if strings.HasPrefix(s.Stage, StageRepair+"-") {
			repairs++
		}
		if s.Model != "" {
			if s.Model != "gpt-4" {
				t.Errorf("stage model = %q", s.Model)
			}
			if s.Usage.CompletionTokens == 0 {
				t.Errorf("LLM stage %s has no completion usage", s.Stage)
			}
		}
	}
	if execs != art.NumIterations() {
		t.Errorf("exec stages = %d, iterations = %d", execs, art.NumIterations())
	}
	if repairs != art.NumIterations()-1 {
		t.Errorf("repair stages = %d for %d iterations", repairs, art.NumIterations())
	}
	if art.Trace.TotalUsage().TotalTokens() == 0 {
		t.Error("total usage empty")
	}
	if art.Trace.LLMCalls() != 2+repairs {
		t.Errorf("LLM calls = %d, want %d", art.Trace.LLMCalls(), 2+repairs)
	}
	text := art.Trace.Format()
	for _, want := range []string{"rewrite", "generate", "exec-1", "total"} {
		if !strings.Contains(text, want) {
			t.Errorf("formatted trace missing %q:\n%s", want, text)
		}
	}
}

// TestRunHonoursCancelledContext: a cancelled context aborts the session.
func TestRunHonoursCancelledContext(t *testing.T) {
	a := newAssistant(t, "gpt-4")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.Run(ctx, testPrompts()["isosurface"]); err == nil {
		t.Error("cancelled context should abort Run")
	}
	if _, err := Unassisted(ctx, a.model, a.runner, "prompt"); err == nil {
		t.Error("cancelled context should abort Unassisted")
	}
}

func TestExampleLibraryCoversAllOps(t *testing.T) {
	ops := map[string]bool{}
	for _, ex := range DefaultExamples() {
		ops[ex.Op] = true
	}
	for _, want := range []string{"read", "contour", "slice", "clip", "delaunay",
		"streamlines", "tube", "glyph", "volume", "view", "screenshot"} {
		if !ops[want] {
			t.Errorf("example library missing op %q", want)
		}
	}
}

func TestOracleOneShotsEverything(t *testing.T) {
	for task, prompt := range testPrompts() {
		a := newAssistant(t, "oracle")
		art, err := a.Run(context.Background(), prompt)
		if err != nil {
			t.Fatal(err)
		}
		if !art.Success || art.NumIterations() != 1 {
			t.Errorf("%s: oracle should one-shot (iters=%d success=%v)",
				task, art.NumIterations(), art.Success)
		}
	}
}

// TestAPIReferenceGroundsWithoutExamples: full API documentation is an
// alternative to few-shot snippets (the paper's proposed "teach it the
// real function calls" extension).
func TestAPIReferenceGroundsWithoutExamples(t *testing.T) {
	model, _ := llm.NewModel("gpt-4")
	runner := testRunner(t)
	apiRef := pvsim.NewEngine("", "").APIReference().Format()
	a, err := NewAssistant(model, runner,
		WithMaxIterations(5),
		WithFewShot(-1), // no examples at all
		WithAPIReference(apiRef))
	if err != nil {
		t.Fatal(err)
	}
	art, err := a.Run(context.Background(), testPrompts()["streamlines"])
	if err != nil {
		t.Fatal(err)
	}
	if !art.Success {
		t.Fatalf("docs-grounded run failed:\n%s", art.Iterations[len(art.Iterations)-1].Output)
	}
	if strings.Contains(art.FinalScript, "glyph.Scalars") {
		t.Error("documentation grounding should suppress the Glyph.Scalars hallucination")
	}
}

// TestChatVisHandlesThresholdTask: a sixth task beyond the paper's five —
// the operation vocabulary generalizes.
func TestChatVisHandlesThresholdTask(t *testing.T) {
	prompt := `Please generate a ParaView Python script for the following operations. ` +
		`Read in the file named 'disk.ex2'. Threshold the data by the Temp array ` +
		`with values between 500 and 900. Color the result by the Pres data array. ` +
		`View the result in an isometric view. Save a screenshot of the result in the ` +
		`filename 'disk-threshold.png'. The rendered view and saved screenshot should be 320 x 180 pixels.`
	a := newAssistant(t, "gpt-4")
	art, err := a.Run(context.Background(), prompt)
	if err != nil {
		t.Fatal(err)
	}
	if !art.Success {
		last := art.Iterations[len(art.Iterations)-1]
		t.Fatalf("threshold task failed:\nScript:\n%s\nOutput:\n%s", last.Script, last.Output)
	}
	if !strings.Contains(art.FinalScript, "LowerThreshold = 500") ||
		!strings.Contains(art.FinalScript, "UpperThreshold = 900") {
		t.Errorf("script missing threshold bounds:\n%s", art.FinalScript)
	}
	if len(art.Screenshots) == 0 {
		t.Error("no screenshot")
	}
}

// TestUnassistedGPT4ThresholdHallucinatesOldAPI: without grounding the
// model emits the deprecated ThresholdRange property; the loop's repair
// rewrites it into the modern Lower/UpperThreshold pair.
func TestUnassistedThresholdRepair(t *testing.T) {
	prompt := `Please generate a ParaView Python script for the following operations. ` +
		`Read in the file named 'disk.ex2'. Threshold the data by the Temp array ` +
		`with values between 500 and 900. Save a screenshot of the result in the ` +
		`filename 'disk-threshold.png'. The rendered view and saved screenshot should be 320 x 180 pixels.`
	model, _ := llm.NewModel("gpt-4")
	runner := testRunner(t)
	art, err := Unassisted(context.Background(), model, runner, prompt)
	if err != nil {
		t.Fatal(err)
	}
	if art.Success {
		t.Fatal("ungrounded threshold script should fail (ThresholdRange)")
	}
	if !strings.Contains(art.FinalScript, "ThresholdRange") {
		t.Fatalf("expected the deprecated-property hallucination:\n%s", art.FinalScript)
	}
	// Now with the loop: the repair must translate the deprecated call.
	a, err := NewAssistant(model, testRunner(t),
		WithMaxIterations(5),
		WithFewShot(-1)) // no examples: force the hallucination path
	if err != nil {
		t.Fatal(err)
	}
	art2, err := a.Run(context.Background(), prompt)
	if err != nil {
		t.Fatal(err)
	}
	if !art2.Success {
		last := art2.Iterations[len(art2.Iterations)-1]
		t.Fatalf("loop failed to repair ThresholdRange:\n%s\n%s", last.Script, last.Output)
	}
	if art2.NumIterations() < 2 {
		t.Errorf("expected the loop to iterate, got %d", art2.NumIterations())
	}
	if strings.Contains(art2.FinalScript, "ThresholdRange") {
		t.Error("repair should have removed the deprecated property")
	}
}

// TestEscapingScreenshotIsRepaired: an absolute SaveScreenshot path is
// refused with a RuntimeError that the error extractor reports for the
// iteration, the repair request carries it to the model, and the
// repaired script's relative name succeeds. Nothing is written at the
// absolute path.
func TestEscapingScreenshotIsRepaired(t *testing.T) {
	const script = `from paraview.simple import *
reader = LegacyVTKReader(FileNames=['ml-100.vtk'])
contour1 = Contour(Input=reader)
contour1.ContourBy = ['POINTS', 'var0']
contour1.Isosurfaces = [0.5]
renderView1 = GetActiveViewOrCreate('RenderView')
Show(contour1, renderView1)
renderView1.ResetCamera()
SaveScreenshot('%s', renderView1, ImageResolution=[80, 60])
`
	escaping := filepath.Join(t.TempDir(), "x.png")
	const refusal = "resolves outside the output directory"
	var repairs int
	model := &llm.ClientFunc{ModelName: "escaper", Fn: func(_ context.Context, req llm.Request) (llm.Response, error) {
		name := escaping
		if strings.Contains(req.User, refusal) {
			repairs++
			name = "x.png"
		}
		return llm.Response{Text: strings.Replace(script, "%s", name, 1)}, nil
	}}
	a, err := NewAssistant(model, testRunner(t), WithRewrite(false))
	if err != nil {
		t.Fatal(err)
	}
	art, err := a.Run(context.Background(), "isosurface")
	if err != nil {
		t.Fatal(err)
	}
	if !art.Success || art.NumIterations() != 2 || repairs != 1 {
		t.Fatalf("success=%v iterations=%d repairs=%d, want a success after one repair", art.Success, art.NumIterations(), repairs)
	}
	errs := art.Iterations[0].Errors
	want := `SaveScreenshot: file name "` + escaping + `" ` + refusal
	if len(errs) != 1 || errs[0].Kind != "RuntimeError" || errs[0].Message != want {
		t.Fatalf("iteration 1 errors = %+v, want RuntimeError %q", errs, want)
	}
	if _, err := os.Stat(escaping); err == nil {
		t.Errorf("the refused screenshot was written to %s", escaping)
	}
}
