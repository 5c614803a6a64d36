package llm

import (
	"context"
	"testing"

	"chatvis/internal/plan"
)

// buildIsoPlan is a minimal canonical pipeline: reader → contour → view/
// display/screenshot.
func buildIsoPlan() *plan.Plan {
	p := plan.New()
	reader := &plan.Stage{Kind: plan.StageSource, ID: "reader1", Class: "LegacyVTKReader"}
	reader.SetProp("FileNames", plan.ListV(plan.StrV("ml-100.vtk")), 0)
	ri := p.Add(reader)
	contour := &plan.Stage{Kind: plan.StageFilter, ID: "contour1", Class: "Contour", Inputs: []int{ri}}
	contour.SetProp("ContourBy", plan.AssocV("POINTS", "var0"), 0)
	contour.SetProp("Isosurfaces", plan.NumsV(0.5), 0)
	ci := p.Add(contour)
	view := &plan.Stage{Kind: plan.StageView, ID: "renderView1", Class: plan.ViewClass, Camera: []string{"ResetCamera"}}
	view.SetProp("ViewSize", plan.NumsV(480, 270), 0)
	vi := p.Add(view)
	p.Add(&plan.Stage{Kind: plan.StageDisplay, ID: "contour1Display", Class: plan.DisplayClass, Inputs: []int{ci, vi}})
	ss := &plan.Stage{Kind: plan.StageScreenshot, ID: "screenshot1", Class: plan.ScreenshotClass, Inputs: []int{vi}}
	ss.SetProp(plan.PropFilename, plan.StrV("iso.png"), 0)
	ss.SetProp(plan.PropImageResolution, plan.NumsV(480, 270), 0)
	p.Add(ss)
	return p
}

func TestParseEditIntentPropertyEdit(t *testing.T) {
	in := ParseEditIntent("Raise the isovalue to 0.7.")
	if len(in.Edits) != 1 {
		t.Fatalf("edits = %+v", in.Edits)
	}
	e := in.Edits[0]
	if e.Kind != EditAddOrSet || e.Class != "Contour" {
		t.Fatalf("edit = %+v", e)
	}
	if len(e.Op.Values) != 1 || e.Op.Values[0] != 0.7 {
		t.Fatalf("values = %v", e.Op.Values)
	}
}

func TestParseEditIntentMultiValueAndDecorations(t *testing.T) {
	in := ParseEditIntent("Change the isosurfaces to the values 0.3 and 0.7. Color the result by the var0 data array. Rotate the view to an isometric direction. Save the screenshot as 'ml-multi-iso-screenshot.png'.")
	kinds := map[EditKind]PlanEdit{}
	for _, e := range in.Edits {
		kinds[e.Kind] = e
	}
	if e, ok := kinds[EditAddOrSet]; !ok || len(e.Op.Values) != 2 || e.Op.Values[0] != 0.3 || e.Op.Values[1] != 0.7 {
		t.Errorf("isosurface edit = %+v", kinds[EditAddOrSet])
	}
	if e := kinds[EditColorBy]; e.Array != "var0" {
		t.Errorf("color edit = %+v", e)
	}
	if e := kinds[EditCamera]; e.View != "isometric" {
		t.Errorf("camera edit = %+v", e)
	}
	if e := kinds[EditScreenshot]; e.Str != "ml-multi-iso-screenshot.png" {
		t.Errorf("screenshot edit = %+v", e)
	}
}

func TestParseEditIntentRemoveAndRetarget(t *testing.T) {
	in := ParseEditIntent("Drop the cone glyphs.")
	if len(in.Edits) != 1 || in.Edits[0].Kind != EditRemove || in.Edits[0].Class != "Glyph" {
		t.Fatalf("remove edits = %+v", in.Edits)
	}
	in = ParseEditIntent("Slice the volume in a plane parallel to the x-y plane at z=1. Put the glyphs on the slice.")
	var sawSliceAdd, sawRetarget bool
	for _, e := range in.Edits {
		if e.Kind == EditAddOrSet && e.Class == "Slice" && e.Op.Axis == "z" && e.Op.Offset == 1 {
			sawSliceAdd = true
		}
		if e.Kind == EditRetarget && e.Class == "Glyph" && e.Target == "Slice" {
			sawRetarget = true
		}
		if e.Kind == EditAddOrSet && e.Class == "Glyph" {
			t.Errorf("retargeted glyph also parsed as an addition: %+v", e)
		}
	}
	if !sawSliceAdd || !sawRetarget {
		t.Errorf("edits = %+v", in.Edits)
	}
}

func TestParseEditIntentPastParticipleIsParentNotCommand(t *testing.T) {
	in := ParseEditIntent("Slice the clipped data in a plane parallel to the x-y plane at z=0.")
	for _, e := range in.Edits {
		if e.Kind == EditAddOrSet && e.Class == "Clip" {
			t.Fatalf("back-reference 'clipped' parsed as a clip command: %+v", in.Edits)
		}
	}
	var slice *PlanEdit
	for i, e := range in.Edits {
		if e.Kind == EditAddOrSet && e.Class == "Slice" {
			slice = &in.Edits[i]
		}
	}
	if slice == nil {
		t.Fatalf("no slice edit in %+v", in.Edits)
	}
	if slice.Parent != "Clip" {
		t.Errorf("slice parent = %q, want Clip", slice.Parent)
	}
}

func TestApplyEditsPropertyEdit(t *testing.T) {
	cur := buildIsoPlan()
	next := ApplyEdits(cur, ParseEditIntent("Raise the isovalue to 0.7."))
	idx := next.FindClass("Contour")
	iso := next.Stage(idx).Props["Isosurfaces"]
	if iso.Kind != plan.KindList || len(iso.List) != 1 || iso.List[0].Num != 0.7 {
		t.Errorf("Isosurfaces = %+v", iso)
	}
	// ContourBy must survive a value-only edit.
	if _, ok := next.Stage(idx).Props["ContourBy"]; !ok {
		t.Error("ContourBy clobbered by isovalue edit")
	}
	// The original plan is untouched.
	old := cur.Stage(cur.FindClass("Contour")).Props["Isosurfaces"]
	if old.List[0].Num != 0.5 {
		t.Error("ApplyEdits mutated its input plan")
	}
}

func TestApplyEditsInsertSplicesTrunk(t *testing.T) {
	cur := buildIsoPlan()
	next := ApplyEdits(cur, ParseEditIntent("Clip the data with a y-z plane at x=0, keeping the -x half."))
	ci := next.FindClass("Clip")
	if ci < 0 {
		t.Fatal("no clip inserted")
	}
	clip := next.Stage(ci)
	if len(clip.Inputs) != 1 || next.Stage(clip.Inputs[0]).Class != "Contour" {
		t.Errorf("clip input = %v", clip.Inputs)
	}
	// The display now shows the clip.
	for _, st := range next.Stages {
		if st.Kind == plan.StageDisplay {
			if next.Stage(st.Inputs[0]).Class != "Clip" {
				t.Errorf("display shows %s, want Clip", next.Stage(st.Inputs[0]).Class)
			}
		}
	}
}

func TestApplyEditsPlaneMoveKeepsInvert(t *testing.T) {
	cur := buildIsoPlan()
	withClip := ApplyEdits(cur, ParseEditIntent("Clip the data with a y-z plane at x=0, keeping the -x half."))
	ci := withClip.FindClass("Clip")
	if inv := withClip.Stage(ci).Props["Invert"]; inv.Num != 1 {
		t.Fatalf("Invert after keep -x = %+v, want 1", inv)
	}
	moved := ApplyEdits(withClip, ParseEditIntent("Move the clip to x=0.2."))
	mi := moved.FindClass("Clip")
	if inv := moved.Stage(mi).Props["Invert"]; inv.Num != 1 {
		t.Errorf("Invert clobbered by a plane move: %+v", inv)
	}
	ct := moved.Stage(mi).Props["ClipType"]
	if ct.Kind != plan.KindHelper || ct.Obj["Origin"].List[0].Num != 0.2 {
		t.Errorf("ClipType after move = %+v", ct)
	}
}

func TestApplyEditsRemoveRewires(t *testing.T) {
	cur := buildIsoPlan()
	withClip := ApplyEdits(cur, ParseEditIntent("Clip the data with a y-z plane at x=0."))
	reverted := ApplyEdits(withClip, ParseEditIntent("Remove the clip."))
	if reverted.FindClass("Clip") >= 0 {
		t.Fatal("clip survived removal")
	}
	// A nil schema skips default folding, which the hash comparison here
	// does not need.
	a := plan.Normalize(cur, nil)
	b := plan.Normalize(reverted, nil)
	if a.Hash() != b.Hash() {
		t.Errorf("add+remove did not round-trip:\n%s\nvs\n%s", mustScript(a), mustScript(b))
	}
}

func TestApplyEditsGlyphOverlayKeepsExistingDisplay(t *testing.T) {
	cur := buildIsoPlan()
	next := ApplyEdits(cur, ParseEditIntent("Add arrow glyphs oriented along the V data array."))
	displays := 0
	for _, st := range next.Stages {
		if st.Kind == plan.StageDisplay {
			displays++
		}
	}
	if displays != 2 {
		t.Errorf("displays = %d, want 2 (overlay keeps the original)", displays)
	}
}

func TestEditIntentKeyStableAcrossRewording(t *testing.T) {
	a := ParseEditIntent("Raise the isovalue to 0.7.").Key()
	b := ParseEditIntent("Set the isovalue to 0.7.").Key()
	c := ParseEditIntent("Raise the isovalue to 0.9.").Key()
	if a != b {
		t.Errorf("reworded identical edits got different keys:\n%s\n%s", a, b)
	}
	if a == c {
		t.Error("different isovalues share a key")
	}
}

// TestSimModelPlanDeltaRoundTrip drives the marker protocol end to end:
// the model receives plan JSON + utterance and answers with the edited
// plan as JSON.
func TestSimModelPlanDeltaRoundTrip(t *testing.T) {
	model, err := NewModel("gpt-4")
	if err != nil {
		t.Fatal(err)
	}
	cur := buildIsoPlan()
	resp, err := model.Complete(context.Background(), Request{
		System: EditSystem,
		User:   BuildPlanEditUser(cur, "Raise the isovalue to 0.7."),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParsePlanText(resp.Text)
	if err != nil {
		t.Fatalf("response is not a plan: %v\n%s", err, resp.Text)
	}
	iso := got.Stage(got.FindClass("Contour")).Props["Isosurfaces"]
	if len(iso.List) != 1 || iso.List[0].Num != 0.7 {
		t.Errorf("Isosurfaces = %+v", iso)
	}
}

// TestRepairPlanDocDropsOffendingProps: the plan-document repair path
// strips hallucinated properties and unknown stages at skill >= 1.
func TestRepairPlanDocDropsOffendingProps(t *testing.T) {
	p := buildIsoPlan()
	idx := p.FindClass("Contour")
	p.Stage(idx).SetProp("Smoothness", plan.NumV(3), 0)
	diags := []plan.Diagnostic{{
		Kind: plan.DiagUnknownProperty, Severity: plan.SevError,
		Stage: "contour1", Class: "Contour", Property: "Smoothness",
	}}
	if got := RepairPlanDoc(p, diags, 0); got.Stage(idx).Props["Smoothness"].Kind == plan.KindNone {
		t.Error("skill 0 repaired anyway")
	}
	fixed := RepairPlanDoc(p, diags, 1)
	if _, ok := fixed.Stage(fixed.FindClass("Contour")).Props["Smoothness"]; ok {
		t.Error("hallucinated property survived repair")
	}
	if _, ok := p.Stage(idx).Props["Smoothness"]; !ok {
		t.Error("repair mutated its input")
	}
}

func mustScript(p *plan.Plan) string { return p.Script() }

// TestParseEditIntentColorPhraseNamesNoFilter: a class word inside a
// colour phrase names what to paint; it must not add or set a filter.
func TestParseEditIntentColorPhraseNamesNoFilter(t *testing.T) {
	for _, tc := range []struct {
		utterance string
		want      PlanEdit
	}{
		{"Color the contour red.", PlanEdit{Kind: EditSolidColor, Str: "red"}},
		{"Color the isosurface blue.", PlanEdit{Kind: EditSolidColor, Str: "blue"}},
		{"Color the slice by the var0 data array.", PlanEdit{Kind: EditColorBy, Array: "var0"}},
	} {
		in := ParseEditIntent(tc.utterance)
		if len(in.Edits) != 1 || in.Edits[0].Kind != tc.want.Kind ||
			in.Edits[0].Str != tc.want.Str || in.Edits[0].Array != tc.want.Array {
			t.Errorf("%q: edits = %+v, want only %+v", tc.utterance, in.Edits, tc.want)
		}
	}
}
