package plan_test

import (
	"encoding/json"
	"strings"
	"testing"

	"chatvis/internal/plan"
	"chatvis/internal/pvsim"
)

const isoScript = `from paraview.simple import *
paraview.simple._DisableFirstRenderCameraReset()

ml100vtk = LegacyVTKReader(registrationName='ml-100.vtk', FileNames=['ml-100.vtk'])

contour1 = Contour(registrationName='Contour1', Input=ml100vtk)
contour1.ContourBy = ['POINTS', 'var0']
contour1.Isosurfaces = [0.5]

renderView1 = GetActiveViewOrCreate('RenderView')
renderView1.ViewSize = [480, 270]

contour1Display = Show(contour1, renderView1)
renderView1.ResetCamera()

SaveScreenshot('ml-iso-screenshot.png', renderView1,
    ImageResolution=[480, 270],
    OverrideColorPalette='WhiteBackground')
`

func mustCompile(t *testing.T, script string) *plan.Compiled {
	t.Helper()
	c, err := plan.Compile(script, pvsim.PlanSchema())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

func TestCompileExtractsPipeline(t *testing.T) {
	c := mustCompile(t, isoScript)
	if len(plan.Errors(c.Diags)) > 0 {
		t.Fatalf("clean script has error diagnostics:\n%s", plan.FormatDiagnostics(c.Diags))
	}
	p := c.Plan
	classes := []string{}
	for _, st := range p.Stages {
		classes = append(classes, st.Class)
	}
	joined := strings.Join(classes, ",")
	for _, want := range []string{"LegacyVTKReader", "Contour", "RenderView", plan.DisplayClass, plan.ScreenshotClass} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing stage class %s in %v", want, classes)
		}
	}
	ci, vi, di := p.FindClass("Contour"), p.FindClass(plan.ViewClass), p.FindClass(plan.DisplayClass)
	if in := p.Stages[ci].Inputs; len(in) != 1 || p.Stage(in[0]).Class != "LegacyVTKReader" {
		t.Errorf("contour inputs = %v", in)
	}
	if in := p.Stages[di].Inputs; len(in) != 2 || in[0] != ci || in[1] != vi {
		t.Errorf("display inputs = %v, want [%d %d]", in, ci, vi)
	}
	if v, ok := p.Stages[ci].Props["Isosurfaces"]; !ok || v.Kind != plan.KindList || v.List[0].Num != 0.5 {
		t.Errorf("contour props = %#v", p.Stages[ci].Props)
	}
}

func TestValidationCatchesPaperFailures(t *testing.T) {
	cases := []struct {
		name    string
		snippet string
		class   string
		prop    string
	}{
		{"clip-insideout", "clip1 = Clip(registrationName='C', ClipType='Plane')\nclip1.InsideOut = 1\n", "Clip", "InsideOut"},
		{"view-viewup", "renderView1 = GetActiveViewOrCreate('RenderView')\nrenderView1.ViewUp = [0.0, 1.0, 0.0]\n", "RenderView", "ViewUp"},
		{"tube-sides", "tube = Tube(registrationName='T')\ntube.NumberOfSides = 12\n", "Tube", "NumberOfSides"},
		{"threshold-range", "t1 = Threshold(registrationName='T')\nt1.ThresholdRange = [500, 900]\n", "Threshold", "ThresholdRange"},
		{"glyph-scalars", "g = Glyph(registrationName='G')\ng.Scalars = ['POINTS', 'Temp']\n", "Glyph", "Scalars"},
		{"display-setrep", "d = Show(c1, renderView1)\nd.SetRepresentation('Volume')\n", plan.DisplayClass, "SetRepresentation"},
		{"view-isometric-method", "renderView1 = GetActiveViewOrCreate('RenderView')\nrenderView1.ResetActiveCameraToIsometric()\n", "RenderView", "ResetActiveCameraToIsometric"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			script := "from paraview.simple import *\nc1 = Contour(registrationName='c1')\nrenderView1 = GetActiveViewOrCreate('RenderView')\n" + tc.snippet
			c := mustCompile(t, script)
			found := false
			for _, d := range plan.Errors(c.Diags) {
				if d.Class == tc.class && d.Property == tc.prop {
					found = true
					if d.Line == 0 && d.Kind != plan.DiagUnknownMethod {
						t.Errorf("diagnostic carries no line: %+v", d)
					}
				}
			}
			if !found {
				t.Errorf("missing diagnostic for %s.%s in:\n%s", tc.class, tc.prop, plan.FormatDiagnostics(c.Diags))
			}
		})
	}
}

func TestValidationCatchesTypeMismatch(t *testing.T) {
	script := "from paraview.simple import *\nc1 = Contour(registrationName='c1')\nc1.Isosurfaces = 'not-a-number'\n"
	c := mustCompile(t, script)
	found := false
	for _, d := range plan.Errors(c.Diags) {
		if d.Kind == plan.DiagTypeMismatch && d.Property == "Isosurfaces" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing type-mismatch diagnostic:\n%s", plan.FormatDiagnostics(c.Diags))
	}
}

func TestViewByNameDiagnostic(t *testing.T) {
	script := `from paraview.simple import *
t = Tube(registrationName='T')
tDisplay = Show(t, 'RenderView1')
renderView1 = GetActiveViewOrCreate('RenderView')
`
	c := mustCompile(t, script)
	found := false
	for _, d := range plan.Errors(c.Diags) {
		if d.Kind == plan.DiagViewByName {
			found = true
		}
	}
	if !found {
		t.Errorf("missing view-by-name diagnostic:\n%s", plan.FormatDiagnostics(c.Diags))
	}
}

// TestNormalizeCanonicalizesEquivalentScripts: reordered construction,
// different variable names, explicitly spelled defaults and int/float
// literal differences all normalize to byte-equal plans.
func TestNormalizeCanonicalizesEquivalentScripts(t *testing.T) {
	variant := `from paraview.simple import *
r = LegacyVTKReader(FileNames=['ml-100.vtk'])
myContour = Contour(Input=r)
myContour.Isosurfaces = [0.5]
myContour.ContourBy = ['POINTS', 'var0']
myContour.ComputeNormals = 1
view = GetActiveViewOrCreate('RenderView')
view.ViewSize = [480.0, 270.0]
d = Show(myContour, view)
view.ResetCamera()
SaveScreenshot('ml-iso-screenshot.png', view,
    ImageResolution=[480, 270],
    OverrideColorPalette='WhiteBackground')
`
	s := pvsim.PlanSchema()
	a := plan.Normalize(mustCompile(t, isoScript).Plan, s)
	b := plan.Normalize(mustCompile(t, variant).Plan, s)
	if !a.Equal(b) {
		ab, _ := a.Encode()
		bb, _ := b.Encode()
		t.Errorf("equivalent scripts normalize differently:\n--- a ---\n%s\n--- b ---\n%s", ab, bb)
	}
}

func TestNormalizeDropsDeadStages(t *testing.T) {
	dead := strings.Replace(isoScript,
		"renderView1 = GetActiveViewOrCreate('RenderView')",
		"deadClip = Clip(registrationName='Dead', Input=ml100vtk, ClipType='Plane')\nrenderView1 = GetActiveViewOrCreate('RenderView')", 1)
	s := pvsim.PlanSchema()
	a := plan.Normalize(mustCompile(t, isoScript).Plan, s)
	b := plan.Normalize(mustCompile(t, dead).Plan, s)
	if !a.Equal(b) {
		t.Error("unshown dangling filter should be eliminated by normalization")
	}
}

// TestScriptRoundTrip: render(normalize(compile(s))) recompiles to the
// identical normalized plan — the fixpoint the repair loop and the
// golden fixtures rely on.
func TestScriptRoundTrip(t *testing.T) {
	s := pvsim.PlanSchema()
	p1 := plan.Normalize(mustCompile(t, isoScript).Plan, s)
	script2 := p1.Script()
	c2, err := plan.Compile(script2, s)
	if err != nil {
		t.Fatalf("rendered script does not parse: %v\n%s", err, script2)
	}
	p2 := plan.Normalize(c2.Plan, s)
	if !p1.Equal(p2) {
		b1, _ := p1.Encode()
		b2, _ := p2.Encode()
		t.Errorf("round trip diverges:\n--- p1 ---\n%s\n--- p2 ---\n%s\n--- script ---\n%s", b1, b2, script2)
	}
}

// TestRoundTripPreservesHallucinations: unknown properties survive
// normalize+render so defective plans stay defective (and diagnosable).
func TestRoundTripPreservesHallucinations(t *testing.T) {
	script := `from paraview.simple import *
g = Glyph(registrationName='G')
g.Scalars = ['POINTS', 'Temp']
view = GetActiveViewOrCreate('RenderView')
d = Show(g, view)
SaveScreenshot('x.png', view, ImageResolution=[100, 100])
`
	s := pvsim.PlanSchema()
	p1 := plan.Normalize(mustCompile(t, script).Plan, s)
	c2, err := plan.Compile(p1.Script(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Errors(c2.Diags)) == 0 {
		t.Error("hallucinated property lost in round trip")
	}
	if !p1.Equal(plan.Normalize(c2.Plan, s)) {
		t.Error("defective plan does not round-trip")
	}
}

func TestChangedStages(t *testing.T) {
	s := pvsim.PlanSchema()
	p1 := plan.Normalize(mustCompile(t, isoScript).Plan, s)
	p2 := plan.Normalize(mustCompile(t, strings.Replace(isoScript, "[0.5]", "[0.7]", 1)).Plan, s)
	changed := plan.ChangedStages(p1, p2)
	// The contour changed, and with it its display (whose subtree
	// contains the contour); the reader, view and screenshot did not.
	want := map[string]bool{"contour1": true, "contour1Display": true}
	if len(changed) != len(want) {
		t.Fatalf("changed = %v", changed)
	}
	for _, id := range changed {
		if !want[id] {
			t.Errorf("unexpected changed stage %s", id)
		}
	}
	if got := plan.ChangedStages(p1, p1); len(got) != 0 {
		t.Errorf("identical plans report changes: %v", got)
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	s := pvsim.PlanSchema()
	p1 := plan.Normalize(mustCompile(t, isoScript).Plan, s)
	blob, err := p1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := plan.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !p1.Equal(p2) {
		t.Error("JSON round trip diverges")
	}
	if p1.Hash() != p2.Hash() {
		t.Error("hash changes across serialization")
	}
}

// TestDecodeRejectsCycles: hashing and execution recurse over Inputs,
// so corrupted plan bytes with a cycle must fail decoding instead of
// overflowing the stack later.
func TestDecodeRejectsCycles(t *testing.T) {
	selfLoop := []byte(`{"version":1,"stages":[{"id":"a","kind":"filter","class":"Contour","inputs":[0]}]}`)
	if _, err := plan.Decode(selfLoop); err == nil {
		t.Error("self-loop should fail to decode")
	}
	twoCycle := []byte(`{"version":1,"stages":[
		{"id":"a","kind":"filter","class":"Contour","inputs":[1]},
		{"id":"b","kind":"filter","class":"Slice","inputs":[0]}]}`)
	if _, err := plan.Decode(twoCycle); err == nil {
		t.Error("two-stage cycle should fail to decode")
	}
	outOfRange := []byte(`{"version":1,"stages":[{"id":"a","kind":"filter","class":"Contour","inputs":[5]}]}`)
	if _, err := plan.Decode(outOfRange); err == nil {
		t.Error("out-of-range input should fail to decode")
	}
}

func TestValueJSON(t *testing.T) {
	vals := []plan.Value{
		plan.NoneV(), plan.StrV("x"), plan.IntV(3), plan.NumV(0.5),
		plan.BoolV(true), plan.NumsV(1, 2.5),
		plan.HelperV("Plane").WithObj("Origin", plan.NumsV(0, 0, 1)),
	}
	for _, v := range vals {
		blob, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var w plan.Value
		if err := json.Unmarshal(blob, &w); err != nil {
			t.Fatalf("unmarshal %s: %v", blob, err)
		}
		if !v.Equal(w) {
			t.Errorf("value %s round trips to %#v", blob, w)
		}
	}
}

func TestSimilarityScoring(t *testing.T) {
	s := pvsim.PlanSchema()
	p1 := plan.Normalize(mustCompile(t, isoScript).Plan, s)
	same := plan.Similarity(p1, p1)
	if same.Overall < 0.999 {
		t.Errorf("identical plans score %v", same)
	}
	p2 := plan.Normalize(mustCompile(t, strings.Replace(isoScript, "[0.5]", "[0.9]", 1)).Plan, s)
	diff := plan.Similarity(p2, p1)
	if diff.PropF1 >= 1 {
		t.Errorf("changed isovalue should lower PropF1: %v", diff)
	}
	if diff.StageF1 != 1 || diff.EdgeF1 != 1 {
		t.Errorf("structure unchanged, got %v", diff)
	}
	empty := plan.New()
	if z := plan.Similarity(empty, p1); z.Overall != 0 {
		t.Errorf("empty vs real should be 0: %v", z)
	}
}

// isoPlan compiles and normalizes isoScript after applying the given
// old/new replacements.
func isoPlan(t *testing.T, replacements ...string) *plan.Plan {
	t.Helper()
	script := isoScript
	for i := 0; i+1 < len(replacements); i += 2 {
		if !strings.Contains(script, replacements[i]) {
			t.Fatalf("isoScript lacks %q", replacements[i])
		}
		script = strings.Replace(script, replacements[i], replacements[i+1], 1)
	}
	return plan.Normalize(mustCompile(t, script).Plan, pvsim.PlanSchema())
}

func TestSimilarityIdenticalPlansScoreOne(t *testing.T) {
	ref := isoPlan(t)
	if s := plan.Similarity(ref, ref); s.Overall < 0.999 || s.StageF1 < 0.999 || s.EdgeF1 < 0.999 || s.PropF1 < 0.999 {
		t.Errorf("identical plans score %v", s)
	}
	// Variable names are not part of the plan.
	renamed := plan.Normalize(mustCompile(t, strings.ReplaceAll(isoScript, "contour1", "iso")).Plan, pvsim.PlanSchema())
	if s := plan.Similarity(renamed, ref); s.Overall < 0.999 {
		t.Errorf("renamed variables score %v", s)
	}
}

func TestSimilarityWrongParameterLowersProp(t *testing.T) {
	ref := isoPlan(t)
	s := plan.Similarity(isoPlan(t, "Isosurfaces = [0.5]", "Isosurfaces = [0.7]"), ref)
	if s.PropF1 >= 1 {
		t.Errorf("wrong isovalue should lower PropF1: %v", s)
	}
	if s.StageF1 != 1 || s.EdgeF1 != 1 {
		t.Errorf("stages unchanged, got %v", s)
	}
	if s.Overall >= 0.999 {
		t.Errorf("overall should drop: %v", s)
	}
}

func TestSimilarityMissingFilterLowersScore(t *testing.T) {
	noContour := plan.Normalize(mustCompile(t, `from paraview.simple import *
reader = LegacyVTKReader(FileNames=['ml-100.vtk'])
renderView1 = GetActiveViewOrCreate('RenderView')
d = Show(reader, renderView1)
SaveScreenshot('ml-iso.png', renderView1, ImageResolution=[480, 270])
`).Plan, pvsim.PlanSchema())
	if s := plan.Similarity(noContour, isoPlan(t)); s.StageF1 >= 1 || s.EdgeF1 >= 1 || s.Overall > 0.8 {
		t.Errorf("missing Contour should lower stage and edge F1: %v", s)
	}
}

// TestSimilarityHallucinatedAttribute: an attribute the schema does not
// know is still recorded in the plan, so it costs property overlap but
// no structure.
func TestSimilarityHallucinatedAttribute(t *testing.T) {
	halluc := isoPlan(t, "contour1.ContourBy =", "contour1.ContourScalars =")
	s := plan.Similarity(halluc, isoPlan(t))
	if s.PropF1 >= 1 || s.StageF1 != 1 || s.EdgeF1 != 1 {
		t.Errorf("hallucinated attribute should lower PropF1 only: %v", s)
	}
}

// TestCompileResolvesPositionalInput: a reader opened by file name and
// passed positionally is typed through dataflow, not by variable name.
func TestCompileResolvesPositionalInput(t *testing.T) {
	p := mustCompile(t, `from paraview.simple import *
reader = OpenDataFile('ml-100.vtk')
contour1 = Contour(reader)
contour1.Isosurfaces = [0.5]
renderView1 = GetActiveViewOrCreate('RenderView')
d = Show(contour1, renderView1)
`).Plan
	ci := p.FindClass("Contour")
	if in := p.Stages[ci].Inputs; len(in) != 1 || p.Stage(in[0]).Class != "LegacyVTKReader" {
		t.Errorf("positional contour inputs = %v in %+v", in, p.Stages)
	}
	if in := p.Stages[p.FindClass(plan.DisplayClass)].Inputs; len(in) == 0 || in[0] != ci {
		t.Errorf("Show target unresolved: display inputs = %v, contour = %d", in, ci)
	}
}
