package plan_test

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"chatvis/internal/datagen"
	"chatvis/internal/plan"
	"chatvis/internal/pvpython"
	"chatvis/internal/pvsim"
	"chatvis/internal/vtkio"
)

// TestCleanScriptIsFullyModelled: the canonical iso script compiles
// with no diagnostic at all.
func TestCleanScriptIsFullyModelled(t *testing.T) {
	if c := mustCompile(t, isoScript); len(c.Diags) != 0 {
		t.Fatalf("diagnostics:\n%s", plan.FormatDiagnostics(c.Diags))
	}
}

// TestUnmodelledStatementsAreReported: statements the static compile
// drops or captures only in part still run, on the interpreter. Each
// either lowers into a plan that, run cold, writes the run's
// screenshots byte for byte, or fails the run with a traceback at a
// line; the order effects a plan cannot keep fail at the screenshot.
func TestUnmodelledStatementsAreReported(t *testing.T) {
	insertAfterShow := func(stmt string) string {
		return strings.Replace(isoScript, "renderView1.ResetCamera()\n", "renderView1.ResetCamera()\n"+stmt+"\n", 1)
	}
	const atShot = "RuntimeError: SaveScreenshot: the "
	dataDir := t.TempDir()
	if err := vtkio.SaveLegacyVTK(filepath.Join(dataDir, "ml-100.vtk"), datagen.MarschnerLobb(16), "ml"); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct{ script, fails string }{
		"division":            {insertAfterShow("x = 1/0"), "ZeroDivisionError"},
		"unknown function":    {insertAfterShow("foo()"), "NameError"},
		"builtin":             {insertAfterShow("print('done')"), ""},
		"import":              {insertAfterShow("import numpy"), "ModuleNotFoundError"},
		"subscript":           {insertAfterShow("[1, 2][5]"), "IndexError"},
		"chained receiver":    {insertAfterShow("GetActiveCamera().Zoom(2)"), "Error"},
		"camera object":       {insertAfterShow("cam = renderView1.GetActiveCamera()\ncam.Azimuth(30)"), atShot + "camera"},
		"hide":                {insertAfterShow("Hide(contour1, renderView1)"), atShot + "camera"},
		"loop":                {insertAfterShow("for i in range(2):\n    renderView1.ResetCamera()"), ""},
		"computed property":   {strings.Replace(isoScript, "[0.5]", "[0.25 * 2]", 1), ""},
		"unbound name":        {insertAfterShow("contourX.Isosurfaces = [0.5]"), "NameError"},
		"set after show":      {insertAfterShow("contour1.Isosurfaces = [0.7]"), atShot + "camera"},
		"change after shot":   {isoScript + "renderView1.ApplyIsometricView()\n", atShot + "camera"},
		"no simple import":    {strings.Replace(isoScript, "from paraview.simple import *\n", "", 1), "NameError"},
		"disabled reset":      {strings.Replace(isoScript, "renderView1.ResetCamera()\n", "", 1), atShot + "camera"},
		"unshown update":      {insertAfterShow("slice1 = Slice(Input=ml100vtk)\nslice1.UpdatePipeline()"), ""},
		"rescale before":      {insertAfterShow("contour1Display.RescaleTransferFunctionToDataRange(True)\nColorBy(contour1Display, ('POINTS', 'var0'))"), ""},
		"shared range":        {insertAfterShow("ColorBy(contour1Display, ('POINTS', 'var0'))\nd2 = Show(ml100vtk, renderView1)\nColorBy(d2, ('POINTS', 'var0'))\nd2.RescaleTransferFunctionToDataRange(True)"), atShot + "camera"},
		"string view in shot": {strings.Replace(isoScript, "SaveScreenshot('ml-iso-screenshot.png', renderView1,", "SaveScreenshot('ml-iso-screenshot.png', 'RenderView1',", 1), "TypeError"},
	} {
		t.Run(name, func(t *testing.T) {
			out := t.TempDir()
			res := (&pvpython.Runner{DataDir: dataDir, OutDir: filepath.Join(out, "run")}).Exec(tc.script)
			if tc.fails != "" {
				if res.OK() || !strings.Contains(res.Output, tc.fails) || !strings.Contains(res.Output, ", line ") {
					t.Fatalf("want a %q traceback at a line, got:\n%s", tc.fails, res.Output)
				}
				return
			}
			if !res.OK() {
				t.Fatalf("run failed:\n%s", res.Output)
			}
			cold := pvsim.NewEngine(dataDir, filepath.Join(out, "cold"))
			shots, err := cold.ExecPlan(context.Background(), res.Plan)
			if err != nil || len(shots) != len(res.Screenshots) {
				t.Fatalf("cold plan: %v, %d screenshots for %d", err, len(shots), len(res.Screenshots))
			}
			for i, ref := range shots {
				if !bytes.Equal(cold.Rendered[ref].Pix, res.Engine.Rendered[res.Screenshots[i]].Pix) {
					t.Errorf("screenshot %d differs between the run and its cold plan", i)
				}
			}
		})
	}
}

// TestRescaleExtendRoundTrips: the plan keeps the extend argument of
// RescaleTransferFunctionToDataRange, and renders it back.
func TestRescaleExtendRoundTrips(t *testing.T) {
	for arg, want := range map[string]string{"True": "(True)", "": "(False)", "extend=False": "(False)", "True, False": "(True)"} {
		script := strings.Replace(isoScript, "renderView1.ResetCamera()\n",
			"ColorBy(contour1Display, ('POINTS', 'var0'))\ncontour1Display.RescaleTransferFunctionToDataRange("+arg+")\nrenderView1.ResetCamera()\n", 1)
		c := mustCompile(t, script)
		if len(c.Diags) != 0 {
			t.Fatalf("(%s): %s", arg, plan.FormatDiagnostics(c.Diags))
		}
		p := plan.Normalize(c.Plan, pvsim.PlanSchema())
		if !strings.Contains(p.Script(), "RescaleTransferFunctionToDataRange"+want) {
			t.Errorf("(%s) renders as:\n%s", arg, p.Script())
		}
		again := plan.Normalize(mustCompile(t, p.Script()).Plan, pvsim.PlanSchema())
		if !again.Equal(p) {
			t.Errorf("(%s) does not round-trip", arg)
		}
	}
}
