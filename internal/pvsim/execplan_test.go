package pvsim

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"chatvis/internal/plan"
	"chatvis/internal/pypy"
)

const planIsoScript = `from paraview.simple import *
paraview.simple._DisableFirstRenderCameraReset()

reader = LegacyVTKReader(registrationName='ml-100.vtk', FileNames=['ml-100.vtk'])

contour1 = Contour(registrationName='Contour1', Input=reader)
contour1.ContourBy = ['POINTS', 'var0']
contour1.Isosurfaces = [0.5]

renderView1 = GetActiveViewOrCreate('RenderView')
renderView1.ViewSize = [120, 80]

contour1Display = Show(contour1, renderView1)
renderView1.ResetCamera()

SaveScreenshot('plan-iso.png', renderView1,
    ImageResolution=[120, 80],
    OverrideColorPalette='WhiteBackground')
`

func compilePlan(t *testing.T, script string) *plan.Plan {
	t.Helper()
	c, err := plan.Compile(script, PlanSchema())
	if err != nil {
		t.Fatal(err)
	}
	if plan.HasErrors(c.Diags) {
		t.Fatalf("unexpected diagnostics:\n%s", plan.FormatDiagnostics(c.Diags))
	}
	return plan.Normalize(c.Plan, PlanSchema())
}

// TestExecPlanMatchesScriptExecution: executing the compiled plan
// renders the same image as interpreting the script it came from.
func TestExecPlanMatchesScriptExecution(t *testing.T) {
	scriptEngine := testEngine(t)

	// Interpret the script the established way.
	runScript(t, scriptEngine, planIsoScript)
	if len(scriptEngine.Screenshots) != 1 {
		t.Fatalf("script run wrote %d screenshots", len(scriptEngine.Screenshots))
	}
	want := scriptEngine.Rendered[scriptEngine.Screenshots[0]]

	// Execute the compiled plan on a fresh engine sharing the data dir.
	planEngine := NewEngine(scriptEngine.DataDir, t.TempDir())
	p := compilePlan(t, planIsoScript)
	shots, err := planEngine.ExecPlan(context.Background(), p)
	if err != nil {
		t.Fatalf("ExecPlan: %v", err)
	}
	if len(shots) != 1 {
		t.Fatalf("plan run wrote %d screenshots", len(shots))
	}
	got := planEngine.Rendered[shots[0]]
	if got.Bounds() != want.Bounds() {
		t.Fatalf("bounds differ: %v vs %v", got.Bounds(), want.Bounds())
	}
	diff := 0
	for i := range want.Pix {
		if want.Pix[i] != got.Pix[i] {
			diff++
		}
	}
	if diff != 0 {
		t.Errorf("plan-executed image differs from script-executed image in %d bytes", diff)
	}
}

// TestExecPlanIncrementalRepairIteration pins the tentpole contract: a
// two-iteration repair run re-executes only the stages whose canonical
// subtree hash changed. Iteration 1 executes reader+contour; iteration 2
// (isovalue tweaked, as a repair would) recomputes the contour alone;
// re-running an identical plan computes nothing.
func TestExecPlanIncrementalRepairIteration(t *testing.T) {
	e := testEngine(t)
	p1 := compilePlan(t, planIsoScript)

	if _, err := e.ExecPlan(context.Background(), p1); err != nil {
		t.Fatal(err)
	}
	if got := e.Executions(); got != 2 { // reader + contour
		t.Fatalf("iteration 1 executed %d stages, want 2", got)
	}

	// Repair iteration: one property changed.
	p2 := compilePlan(t, strings.Replace(planIsoScript, "[0.5]", "[0.62]", 1))
	if changed := plan.ChangedStages(p1, p2); len(changed) != 2 { // contour + its display
		t.Fatalf("plan diff = %v", changed)
	}
	if _, err := e.ExecPlan(context.Background(), p2); err != nil {
		t.Fatal(err)
	}
	if got := e.Executions(); got != 3 { // + contour only; reader reused
		t.Fatalf("iteration 2 executed %d stages total, want 3", got)
	}

	// Identical plan: nothing recomputes at all.
	if _, err := e.ExecPlan(context.Background(), p2); err != nil {
		t.Fatal(err)
	}
	if got := e.Executions(); got != 3 {
		t.Fatalf("identical re-exec computed %d stages total, want 3", got)
	}
	// Each run starts its screenshot log afresh.
	if len(e.Screenshots) != 1 || len(e.Rendered) != 1 {
		t.Fatalf("screenshots = %d, rendered = %d, want the last run's 1", len(e.Screenshots), len(e.Rendered))
	}
}

// TestExecPlanRefusesInvalidPlans: error diagnostics block execution
// before any stage runs.
func TestExecPlanRefusesInvalidPlans(t *testing.T) {
	e := testEngine(t)
	script := strings.Replace(planIsoScript, "contour1.Isosurfaces = [0.5]",
		"contour1.Isosurfaces = [0.5]\ncontour1.ContourMethod = 'fast'", 1)
	c, err := plan.Compile(script, PlanSchema())
	if err != nil {
		t.Fatal(err)
	}
	if !plan.HasErrors(c.Diags) {
		t.Fatal("expected diagnostics for the unknown property")
	}
	if _, err := e.ExecPlan(context.Background(), c.Plan); err == nil {
		t.Fatal("ExecPlan should refuse a plan with error diagnostics")
	}
	if e.Executions() != 0 {
		t.Errorf("invalid plan still executed %d stages", e.Executions())
	}

	// A decoded plan with a forward input reference (acyclic, so Decode
	// accepts it) is refused before any stage runs, not mid-run.
	forward, err := plan.Decode([]byte(`{"version":1,"stages":[
		{"id":"contour1","kind":"filter","class":"Contour","inputs":[1]},
		{"id":"reader1","kind":"source","class":"LegacyVTKReader",
		 "props":{"FileNames":["ml-100.vtk"]}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecPlan(context.Background(), forward); err == nil ||
		!strings.Contains(err.Error(), "topologically") {
		t.Errorf("forward-reference plan not refused up front: %v", err)
	}
	if e.Executions() != 0 {
		t.Errorf("unordered plan still executed %d stages", e.Executions())
	}
}

// runScript interprets a script against an engine, pvpython-style, for
// in-package tests (importing pvpython here would be a cycle).
func runScript(t *testing.T, e *Engine, script string) {
	t.Helper()
	var out bytes.Buffer
	interp := pypy.NewInterp(&out)
	simple := e.BuildSimpleModule()
	interp.RegisterModule(simple)
	if root, ok := interp.Modules["paraview"]; ok {
		simple.Attrs["paraview"] = root
	}
	if err := interp.Run(script); err != nil {
		t.Fatalf("script failed: %v\n%s", err, out.String())
	}
}

// TestExecPlanKeepsOnlyTheLastRunsScreenshots: a long-lived engine (a
// session's) starts every run with an empty screenshot log, so over six
// turns it never holds more images than the last run saved.
func TestExecPlanKeepsOnlyTheLastRunsScreenshots(t *testing.T) {
	e := testEngine(t)
	twoShots := planIsoScript + "SaveScreenshot('second.png', renderView1, ImageResolution=[60, 40])\n"
	for turn := 1; turn <= 6; turn++ {
		script := strings.Replace(planIsoScript, "[0.5]", fmt.Sprintf("[0.%d]", turn+2), 1)
		want := 1
		if turn%2 == 0 {
			script, want = strings.Replace(twoShots, "[0.5]", fmt.Sprintf("[0.%d]", turn+2), 1), 2
		}
		shots, err := e.ExecPlan(context.Background(), compilePlan(t, script))
		if err != nil {
			t.Fatal(err)
		}
		if len(shots) != want || len(e.Screenshots) != want || len(e.Rendered) != want {
			t.Fatalf("turn %d: returned %d, logged %d, rendered %d screenshots; want the run's %d",
				turn, len(shots), len(e.Screenshots), len(e.Rendered), want)
		}
		for _, ref := range shots {
			if e.Rendered[ref] == nil {
				t.Fatalf("turn %d: no image for %s", turn, ref)
			}
		}
	}
}
