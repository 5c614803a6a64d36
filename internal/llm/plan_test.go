package llm

import (
	"strings"
	"testing"

	"chatvis/internal/errext"
	"chatvis/internal/plan"
)

// TestStatementAwareDeletion: the unknown-error fallback must delete the
// whole statement even when the report locates a continuation line of a
// multi-line call (satellite regression: the old code deleted the single
// line and left dangling syntax).
func TestStatementAwareDeletion(t *testing.T) {
	multi := strings.Join([]string{
		"from paraview.simple import *",
		"reader = ExodusIIReader(FileName='disk.ex2')",
		"streamTracer = StreamTracer(registrationName='ST', Input=reader,",
		"                            SeedType='Point Cloud')",
		"tube = Tube(Input=streamTracer)",
		"",
	}, "\n")
	cases := []struct {
		name      string
		script    string
		line      int
		wantGone  []string
		wantKept  []string
		wantValid bool // result must still parse
	}{
		{
			name: "continuation line deletes whole call", script: multi, line: 4,
			wantGone:  []string{"StreamTracer", "SeedType"},
			wantKept:  []string{"reader =", "tube ="},
			wantValid: true,
		},
		{
			name: "opening line deletes whole call", script: multi, line: 3,
			wantGone:  []string{"StreamTracer", "SeedType"},
			wantKept:  []string{"reader =", "tube ="},
			wantValid: true,
		},
		{
			name: "single-line statement deletes only itself", script: multi, line: 2,
			wantGone:  []string{"ExodusIIReader"},
			wantKept:  []string{"StreamTracer", "SeedType", "tube ="},
			wantValid: true,
		},
		{
			name: "bracket-scan fallback on unparsable script",
			script: strings.Join([]string{
				"    x = 1", // stray indent: the parser gives up, the scan takes over
				"reader = ExodusIIReader(FileName='disk.ex2',",
				"                        Foo=1)",
				"tube = Tube()",
				"",
			}, "\n"),
			line:     3,
			wantGone: []string{"ExodusIIReader", "Foo=1"},
			wantKept: []string{"tube ="},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Repair(tc.script, []errext.ErrorReport{{Kind: "ValueError", Line: tc.line}}, 1)
			for _, g := range tc.wantGone {
				if strings.Contains(got, g) {
					t.Errorf("%q should be gone:\n%s", g, got)
				}
			}
			for _, k := range tc.wantKept {
				if !strings.Contains(got, k) {
					t.Errorf("%q should survive:\n%s", k, got)
				}
			}
			if tc.wantValid {
				if _, err := plan.Compile(got, nil); err != nil {
					t.Errorf("repaired script no longer parses: %v\n%s", err, got)
				}
			}
		})
	}
}

// TestRepairPlanFixesDiagnosticsInOneRound: every hallucination the
// knowledge table covers is fixed from structured diagnostics alone — no
// engine run, one round.
func TestRepairPlanFixesDiagnosticsInOneRound(t *testing.T) {
	script := strings.Join([]string{
		"from paraview.simple import *",
		"clip1 = Clip(registrationName='C', ClipType='Plane')",
		"clip1.InsideOut = 1",
		"tube = Tube(Input=clip1)",
		"tube.NumberOfSides = 12",
		"glyph = Glyph(Input=clip1)",
		"glyph.Scalars = ['POINTS', 'Temp']",
		"threshold1 = Threshold(Input=clip1)",
		"threshold1.ThresholdRange = [500, 900]",
		"",
	}, "\n")
	diags := []plan.Diagnostic{
		{Kind: plan.DiagUnknownProperty, Severity: plan.SevError, Class: "Clip", Property: "InsideOut", Line: 3},
		{Kind: plan.DiagUnknownProperty, Severity: plan.SevError, Class: "Tube", Property: "NumberOfSides", Line: 5},
		{Kind: plan.DiagUnknownProperty, Severity: plan.SevError, Class: "Glyph", Property: "Scalars", Line: 7},
		{Kind: plan.DiagUnknownProperty, Severity: plan.SevError, Class: "Threshold", Property: "ThresholdRange", Line: 9},
	}
	got := RepairPlan(script, diags, 2)
	for _, want := range []string{"clip1.Invert = 1", "tube.NumberofSides = 12",
		"threshold1.LowerThreshold = 500", "threshold1.UpperThreshold = 900"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing fix %q in:\n%s", want, got)
		}
	}
	for _, gone := range []string{"InsideOut", "glyph.Scalars", "ThresholdRange"} {
		if strings.Contains(got, gone) {
			t.Errorf("%q should be fixed away:\n%s", gone, got)
		}
	}
	// Skill 0 cannot use the diagnostics.
	if RepairPlan(script, diags, 0) != script {
		t.Error("skill 0 must return the script unchanged")
	}
	// Skill 1 deletes offending statements instead of fixing them.
	del := RepairPlan(script, diags, 1)
	for _, gone := range []string{"InsideOut", "NumberOfSides", "ThresholdRange"} {
		if strings.Contains(del, gone) {
			t.Errorf("skill 1 should delete %q:\n%s", gone, del)
		}
	}
}

// TestRepairPlanLineAnchorsResolveAgainstPristineLines: a
// content-anchored deletion earlier in the diagnostics list must not
// shift a later line-anchored deletion onto an innocent statement.
func TestRepairPlanLineAnchorsResolveAgainstPristineLines(t *testing.T) {
	script := strings.Join([]string{
		"from paraview.simple import *",              // 1
		"contour1 = Contour(Input=reader)",           // 2
		"contour1.BogusProp = 1",                     // 3
		"view = GetActiveViewOrCreate('RenderView')", // 4
		"d = Show(contour1, view)",                   // 5
		"bad = UnknownThing()",                       // 6
		"keep = Tube(Input=contour1)",                // 7
		"",
	}, "\n")
	diags := []plan.Diagnostic{
		// Content-anchored: removes line 3 by needle.
		{Kind: plan.DiagUnknownProperty, Severity: plan.SevError, Class: "Contour", Property: "BogusProp", Line: 3},
		// Line-anchored (no property): must delete line 6, not line 7.
		{Kind: plan.DiagUnknownClass, Severity: plan.SevError, Line: 6},
	}
	got := RepairPlan(script, diags, 1)
	if strings.Contains(got, "BogusProp") || strings.Contains(got, "UnknownThing") {
		t.Errorf("offending statements survived:\n%s", got)
	}
	if !strings.Contains(got, "keep = Tube") {
		t.Errorf("innocent statement deleted by a shifted line anchor:\n%s", got)
	}
}

// TestRepairPlanSkillOneDeletesMarkerDiagnostics: marker properties
// (ViewName) never appear as ".Prop" script text; skill 1 must fall
// back to the diagnostic's line anchor instead of silently repairing
// nothing.
func TestRepairPlanSkillOneDeletesMarkerDiagnostics(t *testing.T) {
	script := strings.Join([]string{
		"from paraview.simple import *",
		"tube = Tube(registrationName='T')",
		"tubeDisplay = Show(tube, 'RenderView1')",
		"keep = Glyph(Input=tube)",
		"",
	}, "\n")
	got := RepairPlan(script, []plan.Diagnostic{
		{Kind: plan.DiagViewByName, Severity: plan.SevError, Property: plan.PropViewName, Line: 3},
	}, 1)
	if got == script {
		t.Fatalf("skill 1 repaired nothing:\n%s", got)
	}
	if strings.Contains(got, "'RenderView1'") {
		t.Errorf("offending Show survived:\n%s", got)
	}
	if !strings.Contains(got, "keep = Glyph") {
		t.Errorf("innocent statement deleted:\n%s", got)
	}
}

// TestRepairPlanFixesViewByName: the Show-by-view-name diagnostic gets
// the same view-creation fix the runtime TypeError path applies.
func TestRepairPlanFixesViewByName(t *testing.T) {
	script := strings.Join([]string{
		"from paraview.simple import *",
		"tube = Tube(registrationName='T')",
		"tubeDisplay = Show(tube, 'RenderView1')",
		"",
	}, "\n")
	got := RepairPlan(script, []plan.Diagnostic{
		{Kind: plan.DiagViewByName, Severity: plan.SevError, Line: 3},
	}, 2)
	if !strings.Contains(got, "renderView1 = GetActiveViewOrCreate('RenderView')") {
		t.Errorf("missing view creation:\n%s", got)
	}
	if !strings.Contains(got, "Show(tube, renderView1)") {
		t.Errorf("name reference not retargeted:\n%s", got)
	}
}

// TestMultiValueContourSurvivesThresholdRewrite: a multi-value contour
// after a threshold keeps its full isovalue list through the
// prompt-rewrite round trip (regression: the thresholded phrasing used
// to drop every value but the first).
func TestMultiValueContourSurvivesThresholdRewrite(t *testing.T) {
	spec := TaskSpec{
		InputFile: "disk.ex2",
		Ops: []Op{
			{Kind: OpRead},
			{Kind: OpThreshold, Array: "Temp", Offset: 300, Value: 900},
			{Kind: OpIsosurface, Array: "Temp", Value: 400, Values: []float64{400, 600}},
		},
	}
	rendered := RenderStepPrompt(spec)
	if !strings.Contains(rendered, "values 400 and 600") {
		t.Fatalf("rewritten prompt lost the isovalue list:\n%s", rendered)
	}
	reparsed := ParseIntent(rendered)
	iso, ok := reparsed.FindOp(OpIsosurface)
	if !ok || len(iso.Values) != 2 || iso.Values[0] != 400 || iso.Values[1] != 600 {
		t.Errorf("re-parsed iso op = %+v", iso)
	}
	// The composition order survives too: the threshold still feeds the
	// contour after the round trip.
	thrAt, isoAt := -1, -1
	for i, op := range reparsed.Ops {
		if op.Kind == OpThreshold && thrAt < 0 {
			thrAt = i
		}
		if op.Kind == OpIsosurface && isoAt < 0 {
			isoAt = i
		}
	}
	if thrAt < 0 || isoAt < 0 || thrAt > isoAt {
		t.Errorf("composition order lost: ops = %+v", reparsed.Ops)
	}
}

// TestWritePlanCoversOps: the intended plan mirrors the writer's stage
// structure for a composite spec.
func TestWritePlanCoversOps(t *testing.T) {
	spec := TaskSpec{
		InputFile:  "disk.ex2",
		Screenshot: "out.png",
		Width:      320, Height: 180,
		ColorArray:    "Temp",
		ViewDirection: "+X",
		Ops: []Op{
			{Kind: OpRead},
			{Kind: OpStreamlines, Array: "V"},
			{Kind: OpTube},
			{Kind: OpGlyph, GlyphType: "Cone"},
		},
	}
	p := WritePlan(spec)
	for _, class := range []string{"ExodusIIReader", "StreamTracer", "Tube", "Glyph", plan.ViewClass, plan.ScreenshotClass} {
		if p.FindClass(class) < 0 {
			t.Errorf("plan missing %s stage", class)
		}
	}
	var pipeline []string
	for _, st := range p.Stages {
		for _, in := range st.Inputs {
			if up := p.Stage(in); st.IsPipeline() && up.IsPipeline() {
				pipeline = append(pipeline, up.Class+"->"+st.Class)
			}
		}
	}
	edges := strings.Join(pipeline, ",")
	for _, want := range []string{"ExodusIIReader->StreamTracer", "StreamTracer->Tube", "StreamTracer->Glyph"} {
		if !strings.Contains(edges, want) {
			t.Errorf("missing edge %s in %s", want, edges)
		}
	}
	displays := 0
	for _, st := range p.Stages {
		if st.Kind == plan.StageDisplay {
			displays++
			if v, ok := st.Props[plan.PropColorArray]; !ok || v.List[1].Str != "Temp" {
				t.Errorf("display not colored by Temp: %#v", st.Props)
			}
		}
	}
	if displays != 2 { // tube + glyph
		t.Errorf("displays = %d, want 2", displays)
	}
}
