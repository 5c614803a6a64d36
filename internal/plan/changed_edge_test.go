package plan

import (
	"strings"
	"testing"
	"testing/quick"
)

// Edge-case coverage for ChangedStages / Similarity / DiffSummary — the
// comparisons every conversational turn leans on.

func edgeIsoPlan(id string) *Plan {
	p := New()
	reader := &Stage{Kind: StageSource, ID: id + "Reader", Class: "LegacyVTKReader"}
	reader.SetProp("FileNames", ListV(StrV("ml-100.vtk")), 0)
	ri := p.Add(reader)
	contour := &Stage{Kind: StageFilter, ID: id + "Contour", Class: "Contour", Inputs: []int{ri}}
	contour.SetProp("ContourBy", AssocV("POINTS", "var0"), 0)
	contour.SetProp("Isosurfaces", NumsV(0.5), 0)
	ci := p.Add(contour)
	view := &Stage{Kind: StageView, ID: id + "View", Class: ViewClass, Camera: []string{"ResetCamera"}}
	view.SetProp("ViewSize", NumsV(480, 270), 0)
	vi := p.Add(view)
	p.Add(&Stage{Kind: StageDisplay, ID: id + "Display", Class: DisplayClass, Inputs: []int{ci, vi}})
	ss := &Stage{Kind: StageScreenshot, ID: id + "Shot", Class: ScreenshotClass, Inputs: []int{vi}}
	ss.SetProp(PropFilename, StrV("iso.png"), 0)
	p.Add(ss)
	return p
}

func TestChangedStagesEmptyVsNonEmpty(t *testing.T) {
	p := edgeIsoPlan("a")
	// nil previous plan: everything is new.
	if got := ChangedStages(nil, p); len(got) != len(p.Stages) {
		t.Errorf("nil prev: %d changed, want %d", len(got), len(p.Stages))
	}
	// Empty (but non-nil) previous plan behaves the same.
	if got := ChangedStages(New(), p); len(got) != len(p.Stages) {
		t.Errorf("empty prev: %d changed, want %d", len(got), len(p.Stages))
	}
	// Shrinking to an empty plan changes nothing on the next side.
	if got := ChangedStages(p, New()); len(got) != 0 {
		t.Errorf("empty next reports changes: %v", got)
	}
	// Identical plans: no changes.
	if got := ChangedStages(p, edgeIsoPlan("a")); len(got) != 0 {
		t.Errorf("identical plans report changes: %v", got)
	}
}

func TestChangedStagesScreenshotOnlyEdit(t *testing.T) {
	prev := edgeIsoPlan("a")
	next := edgeIsoPlan("a")
	for _, st := range next.Stages {
		if st.Kind == StageScreenshot {
			st.SetProp(PropFilename, StrV("renamed.png"), 0)
		}
	}
	got := ChangedStages(prev, next)
	if len(got) != 1 || !strings.HasSuffix(got[0], "Shot") {
		t.Errorf("screenshot-only edit changed %v, want just the screenshot stage", got)
	}
	// No pipeline stage changed: an incremental executor recomputes no
	// filter for a rename.
	for _, id := range got {
		if strings.Contains(id, "Contour") || strings.Contains(id, "Reader") {
			t.Errorf("pipeline stage %s flagged by a screenshot rename", id)
		}
	}
}

func TestChangedStagesPropertyOnlyEdit(t *testing.T) {
	prev := edgeIsoPlan("a")
	next := edgeIsoPlan("a")
	next.Stages[1].SetProp("Isosurfaces", NumsV(0.7), 0)
	got := ChangedStages(prev, next)
	// The contour changed, and its dependent display inherits the change
	// through its subtree hash; reader, view and screenshot do not.
	want := map[string]bool{"aContour": true, "aDisplay": true}
	if len(got) != len(want) {
		t.Fatalf("changed = %v, want %v", got, want)
	}
	for _, id := range got {
		if !want[id] {
			t.Errorf("unexpected changed stage %s", id)
		}
	}
}

func TestChangedStagesRenamedVariableSameStructure(t *testing.T) {
	// Stage IDs are naming, not meaning: a plan rebuilt with different
	// variable names has equal subtree hashes everywhere.
	prev := edgeIsoPlan("a")
	next := edgeIsoPlan("completelyDifferentName")
	if got := ChangedStages(prev, next); len(got) != 0 {
		t.Errorf("renamed-but-identical plan reports changes: %v", got)
	}
	if prev.Hash() != next.Hash() {
		t.Error("renamed-but-identical plans hash differently")
	}
}

func TestSimilarityEmptyAndRenamedEdges(t *testing.T) {
	p := edgeIsoPlan("a")
	empty := New()
	if s := Similarity(empty, empty); s.Overall != 1 {
		t.Errorf("empty vs empty = %v, want all-1", s)
	}
	if s := Similarity(empty, p); s.Overall != 0 {
		t.Errorf("empty vs full = %v, want 0", s)
	}
	if s := Similarity(p, empty); s.Overall != 0 {
		t.Errorf("full vs empty = %v, want 0", s)
	}
	if s := Similarity(p, edgeIsoPlan("z")); s.Overall != 1 {
		t.Errorf("renamed-identical similarity = %v, want 1", s)
	}
	// A property-only edit dents PropF1 but not stage/edge structure.
	edited := edgeIsoPlan("a")
	edited.Stages[1].SetProp("Isosurfaces", NumsV(0.9), 0)
	s := Similarity(edited, p)
	if s.StageF1 != 1 || s.EdgeF1 != 1 {
		t.Errorf("structure scores changed on a property edit: %v", s)
	}
	if s.PropF1 >= 1 {
		t.Errorf("PropF1 = %v, want < 1 after a property edit", s.PropF1)
	}
}

func TestDiffSummaryShapes(t *testing.T) {
	p := edgeIsoPlan("a")
	if got := DiffSummary(nil, p); !strings.Contains(got, "built") {
		t.Errorf("first-turn summary = %q", got)
	}
	if got := DiffSummary(p, edgeIsoPlan("z")); got != "no changes" {
		t.Errorf("identical summary = %q", got)
	}
	edited := edgeIsoPlan("a")
	edited.Stages[1].SetProp("Isosurfaces", NumsV(0.7), 0)
	if got := DiffSummary(p, edited); !strings.Contains(got, "changed") {
		t.Errorf("property-edit summary = %q", got)
	}
	// Add a clip between contour and display.
	added := edgeIsoPlan("a")
	clip := &Stage{Kind: StageFilter, ID: "clip1", Class: "Clip", Inputs: []int{1}}
	ci := added.Add(clip)
	for _, st := range added.Stages {
		if st.Kind == StageDisplay {
			st.Inputs[0] = ci
		}
	}
	got := DiffSummary(p, added)
	if !strings.Contains(got, "added Clip") {
		t.Errorf("added-stage summary = %q", got)
	}
	if back := DiffSummary(added, p); !strings.Contains(back, "removed Clip") {
		t.Errorf("removed-stage summary = %q", back)
	}
}

func TestMultisetF1Properties(t *testing.T) {
	if multisetF1(nil, nil) != 1 {
		t.Error("empty vs empty should be 1")
	}
	if multisetF1([]string{"a"}, nil) != 0 || multisetF1(nil, []string{"a"}) != 0 {
		t.Error("empty vs non-empty should be 0")
	}
	// Symmetric and bounded, over a tiny alphabet so collisions happen.
	f := func(a, b []string) bool {
		norm := func(in []string) []string {
			out := make([]string, 0, len(in))
			for _, s := range in {
				if len(s) > 0 {
					out = append(out, string(s[0]%4+'a'))
				}
			}
			return out
		}
		na, nb := norm(a), norm(b)
		d1, d2 := multisetF1(na, nb), multisetF1(nb, na)
		return d1 == d2 && d1 >= 0 && d1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
