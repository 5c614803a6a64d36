package plan_test

import (
	"strings"
	"testing"

	"chatvis/internal/plan"
	"chatvis/internal/pvsim"
)

// TestCleanScriptIsFullyModelled: the canonical iso script reports no
// diagnostic at all, so sessions run it as its plan.
func TestCleanScriptIsFullyModelled(t *testing.T) {
	c := mustCompile(t, isoScript)
	if !plan.FullyModelled(c.Diags) || len(c.Diags) != 0 {
		t.Fatalf("diagnostics:\n%s", plan.FormatDiagnostics(c.Diags))
	}
}

// TestUnmodelledStatementsAreReported: every statement the compiler
// drops or captures only in part is reported as one info diagnostic on
// its line, and the plan is then not fully modelled.
func TestUnmodelledStatementsAreReported(t *testing.T) {
	insertAfterShow := func(stmt string) string {
		return strings.Replace(isoScript, "renderView1.ResetCamera()\n", "renderView1.ResetCamera()\n"+stmt+"\n", 1)
	}
	for name, script := range map[string]string{
		"division":            insertAfterShow("x = 1/0"),
		"unknown function":    insertAfterShow("foo()"),
		"builtin":             insertAfterShow("print('done')"),
		"import":              insertAfterShow("import numpy"),
		"subscript":           insertAfterShow("[1, 2][5]"),
		"chained receiver":    insertAfterShow("GetActiveCamera().Zoom(2)"),
		"camera object":       insertAfterShow("cam = renderView1.GetActiveCamera()\ncam.Azimuth(30)"),
		"hide":                insertAfterShow("Hide(contour1, renderView1)"),
		"loop":                insertAfterShow("for i in range(2):\n    renderView1.ResetCamera()"),
		"computed property":   strings.Replace(isoScript, "[0.5]", "[0.25 * 2]", 1),
		"unbound name":        insertAfterShow("contourX.Isosurfaces = [0.5]"),
		"set after show":      insertAfterShow("contour1.Isosurfaces = [0.7]"),
		"change after shot":   isoScript + "renderView1.ApplyIsometricView()\n",
		"no simple import":    strings.Replace(isoScript, "from paraview.simple import *\n", "", 1),
		"disabled reset":      strings.Replace(isoScript, "renderView1.ResetCamera()\n", "", 1),
		"unshown update":      insertAfterShow("slice1 = Slice(Input=ml100vtk)\nslice1.UpdatePipeline()"),
		"rescale before":      insertAfterShow("contour1Display.RescaleTransferFunctionToDataRange(True)\nColorBy(contour1Display, ('POINTS', 'var0'))"),
		"shared range":        insertAfterShow("ColorBy(contour1Display, ('POINTS', 'var0'))\nd2 = Show(ml100vtk, renderView1)\nColorBy(d2, ('POINTS', 'var0'))\nd2.RescaleTransferFunctionToDataRange(True)"),
		"string view in shot": strings.Replace(isoScript, "SaveScreenshot('ml-iso-screenshot.png', renderView1,", "SaveScreenshot('ml-iso-screenshot.png', 'RenderView1',", 1),
	} {
		t.Run(name, func(t *testing.T) {
			c := mustCompile(t, script)
			if plan.FullyModelled(c.Diags) {
				t.Fatalf("reported fully modelled:\n%s", script)
			}
			if plan.HasErrors(c.Diags) {
				return // an error diagnostic already blocks the plan path
			}
			found := false
			for _, d := range c.Diags {
				if d.Kind == plan.DiagUnmodelled {
					found = found || (d.Severity == plan.SevInfo && d.Line > 0)
				}
			}
			if !found {
				t.Errorf("no info-severity unmodelled diagnostic with a line:\n%s", plan.FormatDiagnostics(c.Diags))
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
		if !plan.FullyModelled(c.Diags) {
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
