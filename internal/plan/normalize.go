package plan

import (
	"fmt"
	"sort"
)

// Normalize converts a plan to canonical form so that semantically equal
// scripts produce byte-equal plans. The passes, in order:
//
//  1. value canonicalization — 1.0 and 1 serialize identically;
//  2. property folding — properties equal to their schema defaults are
//     dropped (including nested helper properties, and helpers that fold
//     to the constructor-implied default);
//  3. dead-stage elimination — pipeline stages that feed no display and
//     views that host nothing are removed (skipped for plans with no
//     display/screenshot at all, which are fragments, not pipelines);
//  4. canonical stage ordering — a deterministic topological order
//     (pipeline, then views, then displays, then screenshots; ties
//     broken by class and subtree hash), which subsumes intent-level
//     reorderings such as the clip-before-slice rule: however the script
//     ordered independent construction, equal DAGs order equally;
//  5. canonical IDs — stages are renamed class-stem+ordinal, so variable
//     naming cannot leak into the serialized form.
//
// The input plan is not modified. A nil schema skips default folding.
func Normalize(p *Plan, s *Schema) *Plan {
	q := p.Clone()

	// Pass 1+2: canonicalize values, fold defaults.
	for _, st := range q.Stages {
		cls := s.Class(st.Class)
		for name, v := range st.Props {
			v = v.canonical()
			if v.Kind == KindHelper {
				v = foldHelper(v, s)
			}
			st.Props[name] = v
			if cls == nil {
				continue
			}
			if prop, ok := cls.Props[name]; ok && prop.Default != nil && v.Equal(prop.Default.canonical()) {
				delete(st.Props, name)
				continue
			}
			// A helper folded down to the constructor default vanishes.
			if v.Kind == KindHelper && len(v.Obj) == 0 && HelperDefaults[st.Class][name] == v.Class {
				delete(st.Props, name)
			}
		}
		if len(st.Props) == 0 {
			st.Props = nil
		}
	}

	// Pass 3: dead-stage elimination.
	q = dropDeadStages(q)

	// Pass 4: canonical topological order.
	q = reorder(q)

	// Pass 5: canonical IDs.
	assignIDs(q)
	return q
}

// foldHelper canonicalizes a helper value and drops obj entries equal to
// the helper class defaults.
func foldHelper(v Value, s *Schema) Value {
	hcls := s.Class(v.Class)
	for name, pv := range v.Obj {
		if hcls == nil {
			break
		}
		if prop, ok := hcls.Props[name]; ok && prop.Default != nil && pv.Equal(prop.Default.canonical()) {
			delete(v.Obj, name)
		}
	}
	return v
}

// dropDeadStages removes pipeline stages not feeding any display and
// views hosting neither a display nor a screenshot. Plans without any
// display or screenshot are fragments and are left whole.
func dropDeadStages(p *Plan) *Plan {
	hasSink := false
	for _, st := range p.Stages {
		if st.Kind == StageDisplay || st.Kind == StageScreenshot {
			hasSink = true
			break
		}
	}
	if !hasSink {
		return p
	}
	live := make([]bool, len(p.Stages))
	var mark func(i int)
	mark = func(i int) {
		if i < 0 || i >= len(p.Stages) || live[i] {
			return
		}
		live[i] = true
		for _, in := range p.Stages[i].Inputs {
			mark(in)
		}
	}
	for i, st := range p.Stages {
		if st.Kind == StageDisplay || st.Kind == StageScreenshot {
			mark(i)
		}
	}
	remap := make([]int, len(p.Stages))
	q := &Plan{Version: p.Version}
	for i, st := range p.Stages {
		if !live[i] {
			remap[i] = -1
			continue
		}
		remap[i] = len(q.Stages)
		q.Stages = append(q.Stages, st)
	}
	for _, st := range q.Stages {
		ins := st.Inputs[:0]
		for _, in := range st.Inputs {
			if remap[in] >= 0 {
				ins = append(ins, remap[in])
			}
		}
		st.Inputs = ins
		if len(st.Inputs) == 0 {
			st.Inputs = nil
		}
	}
	return q
}

// kindRank orders stage kinds in the canonical layout.
func kindRank(kind string) int {
	switch kind {
	case StageSource, StageFilter:
		return 0
	case StageView:
		return 1
	case StageDisplay:
		return 2
	case StageScreenshot:
		return 3
	}
	return 4
}

// reorder emits the stages in deterministic topological order.
func reorder(p *Plan) *Plan {
	n := len(p.Stages)
	hashes := p.StageHashes()
	indeg := make([]int, n)
	dependents := make([][]int, n)
	for i, st := range p.Stages {
		for _, in := range st.Inputs {
			indeg[i]++
			dependents[in] = append(dependents[in], i)
		}
	}
	ready := []int{}
	for i := range p.Stages {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	less := func(a, b int) bool {
		sa, sb := p.Stages[a], p.Stages[b]
		if ra, rb := kindRank(sa.Kind), kindRank(sb.Kind); ra != rb {
			return ra < rb
		}
		if sa.Class != sb.Class {
			return sa.Class < sb.Class
		}
		if hashes[a] != hashes[b] {
			return hashes[a] < hashes[b]
		}
		return a < b
	}
	var order []int
	for len(ready) > 0 {
		sort.Slice(ready, func(i, j int) bool { return less(ready[i], ready[j]) })
		next := ready[0]
		ready = ready[1:]
		order = append(order, next)
		for _, d := range dependents[next] {
			indeg[d]--
			if indeg[d] == 0 {
				ready = append(ready, d)
			}
		}
	}
	if len(order) != n {
		// A cycle cannot arise from compilation; keep the original order
		// defensively.
		return p
	}
	remap := make([]int, n)
	q := &Plan{Version: p.Version, Stages: make([]*Stage, 0, n)}
	for newIdx, oldIdx := range order {
		remap[oldIdx] = newIdx
		q.Stages = append(q.Stages, p.Stages[oldIdx])
	}
	for _, st := range q.Stages {
		for i, in := range st.Inputs {
			st.Inputs[i] = remap[in]
		}
	}
	return q
}

// idStems maps classes to canonical variable stems for regenerated IDs.
var idStems = map[string]string{
	"LegacyVTKReader": "reader",
	"ExodusIIReader":  "reader",
	"Contour":         "contour",
	"Slice":           "slice",
	"Clip":            "clip",
	"Delaunay3D":      "delaunay3D",
	"StreamTracer":    "streamTracer",
	"Tube":            "tube",
	"Glyph":           "glyph",
	"ExtractSurface":  "extractSurface",
	"Threshold":       "threshold",
	"Transform":       "transform",
	ViewClass:         "renderView",
	ScreenshotClass:   "screenshot",
}

// assignIDs renames every stage to its canonical class-stem + ordinal;
// displays take their source stage's ID plus a "Display" suffix.
func assignIDs(p *Plan) {
	counts := map[string]int{}
	for _, st := range p.Stages {
		if st.Kind == StageDisplay {
			continue
		}
		stem, ok := idStems[st.Class]
		if !ok {
			stem = "stage"
		}
		counts[stem]++
		st.ID = fmt.Sprintf("%s%d", stem, counts[stem])
	}
	for _, st := range p.Stages {
		if st.Kind != StageDisplay {
			continue
		}
		base := "display"
		if len(st.Inputs) > 0 {
			base = p.Stages[st.Inputs[0]].ID + "Display"
		}
		counts[base]++
		if counts[base] > 1 {
			st.ID = fmt.Sprintf("%s%d", base, counts[base])
		} else {
			st.ID = base
		}
	}
}
