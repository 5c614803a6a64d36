package llm

import (
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"chatvis/internal/plan"
)

// The conversational side of the language-model layer: the edit-intent
// grammar (what a follow-up utterance means as a change to an existing
// pipeline) and the PlanDelta path — a model proposes a full target plan
// from (current plan JSON + utterance), which the session validates and
// executes incrementally.

// EditKind enumerates the pipeline-edit operations the grammar admits.
type EditKind int

// Edit kinds.
const (
	// EditAddOrSet adds a pipeline stage for the op, or updates the
	// matching stage's parameters when one already exists.
	EditAddOrSet EditKind = iota
	// EditRemove deletes the stage of the named class, rewiring its
	// dependents to its input.
	EditRemove
	// EditRetarget reconnects one stage onto another ("put the glyphs on
	// the slice").
	EditRetarget
	// EditColorBy recolors every display by a data array.
	EditColorBy
	// EditSolidColor paints the main display a named solid color.
	EditSolidColor
	// EditCamera reorients the view.
	EditCamera
	// EditScreenshot renames the screenshot output file.
	EditScreenshot
	// EditRepresentation switches the main display's representation type
	// ("Wireframe", "Surface").
	EditRepresentation
	// EditResolution resizes the view and screenshot.
	EditResolution
)

func (k EditKind) String() string {
	switch k {
	case EditAddOrSet:
		return "add-or-set"
	case EditRemove:
		return "remove"
	case EditRetarget:
		return "retarget"
	case EditColorBy:
		return "color-by"
	case EditSolidColor:
		return "solid-color"
	case EditCamera:
		return "camera"
	case EditScreenshot:
		return "screenshot"
	case EditRepresentation:
		return "representation"
	case EditResolution:
		return "resolution"
	}
	return "unknown"
}

// PlanEdit is one parsed edit operation.
type PlanEdit struct {
	Kind EditKind `json:"kind"`
	// Op carries the operation parameters for add-or-set edits.
	Op Op `json:"op,omitempty"`
	// Class is the stage class an add/remove/retarget edit targets.
	Class string `json:"class,omitempty"`
	// Parent, when set, names the class the utterance says the new stage
	// consumes ("slice the clipped data" → Parent "Clip").
	Parent string `json:"parent,omitempty"`
	// Target is the new upstream class of a retarget edit.
	Target string `json:"target,omitempty"`
	// Array is the color array of a color-by edit.
	Array string `json:"array,omitempty"`
	// View is the camera direction of a camera edit.
	View string `json:"view,omitempty"`
	// Str is the filename / representation / color payload.
	Str string `json:"str,omitempty"`
	// PlaneOnly marks a "move the plane" edit: only the plane helper of
	// the stage changes; other parameters (e.g. Clip's Invert) keep
	// their current values.
	PlaneOnly bool `json:"plane_only,omitempty"`
	// Width, Height are the resolution-edit payload.
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`
}

// EditIntent is the structured reading of a follow-up utterance: an
// ordered list of edits against the session's current plan.
type EditIntent struct {
	Edits []PlanEdit `json:"edits"`
}

// Empty reports whether the utterance parsed to no recognizable edit.
func (e EditIntent) Empty() bool { return len(e.Edits) == 0 }

// Key returns a canonical content encoding of the intent, used by
// chatvisd's turn coalescing (two rewordings of the same edit share it).
func (e EditIntent) Key() string {
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Sprintf("%+v", e)
	}
	return string(b)
}

// editClassWords maps utterance nouns to the stage classes they name.
var editClassWords = map[string]string{
	"glyph": "Glyph", "glyphs": "Glyph",
	"clip":  "Clip",
	"slice": "Slice",
	"tube":  "Tube", "tubes": "Tube",
	"contour": "Contour", "contours": "Contour",
	"isosurface": "Contour", "isosurfaces": "Contour",
	"threshold":  "Threshold",
	"streamline": "StreamTracer", "streamlines": "StreamTracer",
	"delaunay": "Delaunay3D", "triangulation": "Delaunay3D",
	"volume": "", // "the volume" names the source, not a filter
}

// classForOpKind maps operation kinds to the proxy class they build.
func classForOpKind(k OpKind) string {
	switch k {
	case OpIsosurface, OpContourLines:
		return "Contour"
	case OpSlice:
		return "Slice"
	case OpClip:
		return "Clip"
	case OpThreshold:
		return "Threshold"
	case OpDelaunay:
		return "Delaunay3D"
	case OpStreamlines:
		return "StreamTracer"
	case OpTube:
		return "Tube"
	case OpGlyph:
		return "Glyph"
	}
	return ""
}

var (
	classWordPat = `(glyphs?|clips?|slices?|tubes?|contours?|isosurfaces?|thresholds?|streamlines?|delaunay|triangulation)`
	removeRe     = regexp.MustCompile(`(?i)(?:remove|drop|delete|discard)\s+(?:the\s+)?(?:[\w-]+\s+){0,2}?` + classWordPat)
	retargetRe   = regexp.MustCompile(`(?i)(?:put|move|attach)\s+(?:the\s+)?(?:[\w-]+\s+){0,2}?` + classWordPat + `\s+(?:onto|on|to)\s+(?:the\s+)?(?:[\w-]+\s+){0,2}?` + classWordPat)
	// pastRefRe marks "the Xed data" back-references: the named class is
	// the parent of a new stage, not a command to build one.
	pastRefRe    = regexp.MustCompile(`(?i)\b(clipped|sliced|thresholded|contoured)\b`)
	isoEditRe    = regexp.MustCompile(`(?i)(?:raise|lower|change|set|move)\s+the\s+(?:isovalues?|isosurfaces?)\s+to\s+(?:the\s+)?(?:values?\s+)?(` + numPat + `(?:(?:\s*,\s*|\s+and\s+)` + numPat + `)*)`)
	planeEditRe  = regexp.MustCompile(`(?i)move\s+the\s+(slice|clip)\s+(?:plane\s+)?to\s+([xyz])\s*=\s*` + numPat)
	threshEditRe = regexp.MustCompile(`(?i)(?:change|set)\s+the\s+threshold\s+(?:range\s+)?to\s+(?:between\s+)?` + numPat + `\s+and\s+` + numPat)
	saveAsRe     = regexp.MustCompile(`(?i)save\s+(?:the\s+)?screenshot\s+(?:[\w\s]{0,24}?)?(?:as|to|in)\s+(?:the\s+filename\s+)?['"]?([\w\-.]+?\.png)['"]?`)
	surfaceRe    = regexp.MustCompile(`(?i)(?:render|show|display)\s+(?:the\s+)?[\w\s]*?as\s+a?\s*surface`)
	classWordRe  = regexp.MustCompile(`(?i)\b` + classWordPat + `\b`)
)

// neutralizeColorObjects rewrites the class words inside colour phrases
// ("Color the contour red", "color the slice by the var0 array"): there
// they name what to paint, not a filter to add or set.
func neutralizeColorObjects(text string) string {
	for _, re := range []*regexp.Regexp{solidRe, colorRe} {
		text = re.ReplaceAllStringFunc(text, func(phrase string) string {
			return classWordRe.ReplaceAllString(phrase, "result")
		})
	}
	return text
}

// pastParticipleClass maps "clipped"-style references to the class named.
var pastParticipleClass = map[string]string{
	"clipped": "Clip", "sliced": "Slice",
	"thresholded": "Threshold", "contoured": "Contour",
}

// ParseEditIntent extracts the structured edit list from a follow-up
// utterance against an existing pipeline. Like ParseIntent it is
// deterministic and shared by every simulated model; models differ in
// what they do downstream, not in language understanding.
func ParseEditIntent(text string) EditIntent {
	var intent EditIntent

	// Back-references ("the clipped data") name the parent of a new
	// stage; neutralize them so the op parser does not read them as
	// commands, but keep the parent hint for insertion.
	parentHint := ""
	if m := pastRefRe.FindStringSubmatch(text); m != nil {
		parentHint = pastParticipleClass[strings.ToLower(m[1])]
	}
	sanitized := pastRefRe.ReplaceAllString(text, "upstream")

	// Classes being removed or retargeted must not also be parsed as
	// additions from their keyword alone.
	suppressed := map[string]bool{}

	for _, m := range removeRe.FindAllStringSubmatch(sanitized, -1) {
		cls := editClassWords[strings.ToLower(m[1])]
		if cls == "" {
			continue
		}
		intent.Edits = append(intent.Edits, PlanEdit{Kind: EditRemove, Class: cls})
		suppressed[cls] = true
	}
	var retargets []PlanEdit
	for _, m := range retargetRe.FindAllStringSubmatch(sanitized, -1) {
		cls, onto := editClassWords[strings.ToLower(m[1])], editClassWords[strings.ToLower(m[2])]
		if cls == "" || onto == "" || cls == onto {
			continue
		}
		retargets = append(retargets, PlanEdit{Kind: EditRetarget, Class: cls, Target: onto})
		suppressed[cls] = true
	}

	// Dedicated edit phrasings that the one-shot parser has no rule for.
	if m := isoEditRe.FindStringSubmatch(sanitized); m != nil {
		op := Op{Kind: OpIsosurface}
		for _, n := range numsRe.FindAllString(m[1], -1) {
			if v, err := strconv.ParseFloat(n, 64); err == nil {
				op.Values = append(op.Values, v)
			}
		}
		if len(op.Values) > 0 {
			op.Value = op.Values[0]
		}
		intent.Edits = append(intent.Edits, PlanEdit{Kind: EditAddOrSet, Op: op, Class: "Contour"})
		suppressed["Contour"] = true
	}
	if m := planeEditRe.FindStringSubmatch(sanitized); m != nil {
		kind := OpSlice
		if strings.EqualFold(m[1], "clip") {
			kind = OpClip
		}
		off, _ := strconv.ParseFloat(m[3], 64)
		op := Op{Kind: kind, Axis: strings.ToLower(m[2]), Offset: off}
		intent.Edits = append(intent.Edits, PlanEdit{Kind: EditAddOrSet, Op: op, Class: classForOpKind(kind), PlaneOnly: true})
		suppressed[classForOpKind(kind)] = true
	}
	if m := threshEditRe.FindStringSubmatch(sanitized); m != nil {
		lo, _ := strconv.ParseFloat(m[1], 64)
		hi, _ := strconv.ParseFloat(m[2], 64)
		op := Op{Kind: OpThreshold, Offset: lo, Value: hi}
		intent.Edits = append(intent.Edits, PlanEdit{Kind: EditAddOrSet, Op: op, Class: "Threshold"})
		suppressed["Threshold"] = true
	}

	// The one-shot grammar covers ordinary "slice the data in a plane…"
	// phrasings; everything it extracts that is not suppressed becomes an
	// add-or-set edit.
	spec := ParseIntent(neutralizeColorObjects(sanitized))
	for _, op := range spec.Ops {
		if op.Kind == OpRead {
			continue
		}
		cls := classForOpKind(op.Kind)
		if cls == "" || suppressed[cls] {
			continue
		}
		intent.Edits = append(intent.Edits,
			PlanEdit{Kind: EditAddOrSet, Op: op, Class: cls, Parent: parentHint})
		suppressed[cls] = true
	}
	intent.Edits = append(intent.Edits, retargets...)

	if spec.ColorArray != "" {
		intent.Edits = append(intent.Edits, PlanEdit{Kind: EditColorBy, Array: spec.ColorArray})
	}
	if spec.SolidColor != "" {
		intent.Edits = append(intent.Edits, PlanEdit{Kind: EditSolidColor, Str: spec.SolidColor})
	}
	if dir := parseViewDirection(sanitized); dir != "" {
		intent.Edits = append(intent.Edits, PlanEdit{Kind: EditCamera, View: dir})
	}
	if spec.Wireframe {
		intent.Edits = append(intent.Edits, PlanEdit{Kind: EditRepresentation, Str: "Wireframe"})
	} else if surfaceRe.MatchString(sanitized) {
		intent.Edits = append(intent.Edits, PlanEdit{Kind: EditRepresentation, Str: "Surface"})
	}
	if spec.Screenshot != "" {
		intent.Edits = append(intent.Edits, PlanEdit{Kind: EditScreenshot, Str: spec.Screenshot})
	} else if m := saveAsRe.FindStringSubmatch(sanitized); m != nil {
		intent.Edits = append(intent.Edits, PlanEdit{Kind: EditScreenshot, Str: m[1]})
	}
	if spec.Width > 0 && spec.Height > 0 {
		intent.Edits = append(intent.Edits, PlanEdit{Kind: EditResolution, Width: spec.Width, Height: spec.Height})
	}
	return intent
}

// overlayClasses mark stages that decorate the trunk (they are shown in
// addition to it, not instead of it).
var overlayClasses = map[string]bool{"Glyph": true, "Tube": true}

// trunkTail returns the index of the pipeline stage new filters should
// consume by default: the deepest displayed non-overlay stage, falling
// back to the deepest pipeline stage.
func trunkTail(p *plan.Plan) int {
	depth := make([]int, len(p.Stages))
	for i, st := range p.Stages {
		for _, in := range st.Inputs {
			if in < i && depth[in]+1 > depth[i] {
				depth[i] = depth[in] + 1
			}
		}
	}
	displayed := map[int]bool{}
	for _, st := range p.Stages {
		if st.Kind == plan.StageDisplay && len(st.Inputs) > 0 {
			displayed[st.Inputs[0]] = true
		}
	}
	best, bestDepth := -1, -1
	consider := func(i int) {
		st := p.Stages[i]
		if !st.IsPipeline() || overlayClasses[st.Class] {
			return
		}
		if depth[i] > bestDepth {
			best, bestDepth = i, depth[i]
		}
	}
	for i := range p.Stages {
		if displayed[i] {
			consider(i)
		}
	}
	if best >= 0 {
		return best
	}
	for i := range p.Stages {
		consider(i)
	}
	if best >= 0 {
		return best
	}
	// Overlay-only pipelines: take any deepest pipeline stage.
	for i, st := range p.Stages {
		if st.IsPipeline() && depth[i] > bestDepth {
			best, bestDepth = i, depth[i]
		}
	}
	return best
}

// findPipelineClass returns the index of the first pipeline stage of the
// class, or -1.
func findPipelineClass(p *plan.Plan, class string) int {
	for i, st := range p.Stages {
		if st.IsPipeline() && st.Class == class {
			return i
		}
	}
	return -1
}

// propsForOp renders an operation's stage properties. Fields the
// utterance did not specify (an empty Array) are omitted so a set-edit
// merges into the existing stage instead of clobbering it.
func propsForOp(op Op) map[string]plan.Value {
	props := map[string]plan.Value{}
	switch op.Kind {
	case OpIsosurface:
		if op.Array != "" {
			props["ContourBy"] = plan.AssocV("POINTS", op.Array)
		}
		values := op.Values
		if len(values) == 0 {
			values = []float64{op.Value}
		}
		props["Isosurfaces"] = plan.NumsV(values...)
	case OpContourLines:
		props["Isosurfaces"] = plan.NumsV(op.Value)
	case OpSlice:
		props["SliceType"] = planePropVals(op.Axis, op.Offset)
	case OpClip:
		props["ClipType"] = planePropVals(op.Axis, op.Offset)
		props["Invert"] = plan.IntV(int64(boolToInt(op.KeepNegative)))
	case OpThreshold:
		if op.Array != "" {
			props["Scalars"] = plan.AssocV("POINTS", op.Array)
		}
		props["LowerThreshold"] = plan.NumV(op.Offset)
		props["UpperThreshold"] = plan.NumV(op.Value)
	case OpTube:
		props["Radius"] = plan.NumV(0.075)
	case OpGlyph:
		gt := op.GlyphType
		if gt == "" {
			gt = "Arrow"
		}
		props["GlyphType"] = plan.StrV(gt)
		props["OrientationArray"] = plan.AssocV("POINTS", "V")
		props["ScaleArray"] = plan.AssocV("POINTS", "V")
		props["ScaleFactor"] = plan.NumV(0.2)
	}
	return props
}

// cameraOpsForDirection maps a view direction to the camera-op sequence
// the writer emits for it.
func cameraOpsForDirection(dir string) []string {
	switch dir {
	case "isometric":
		return []string{"ApplyIsometricView", "ResetCamera"}
	case "+X":
		return []string{"ResetActiveCameraToPositiveX", "ResetCamera"}
	case "-X":
		return []string{"ResetActiveCameraToNegativeX", "ResetCamera"}
	case "+Y":
		return []string{"ResetActiveCameraToPositiveY", "ResetCamera"}
	case "-Y":
		return []string{"ResetActiveCameraToNegativeY", "ResetCamera"}
	case "+Z":
		return []string{"ResetActiveCameraToPositiveZ", "ResetCamera"}
	case "-Z":
		return []string{"ResetActiveCameraToNegativeZ", "ResetCamera"}
	}
	return []string{"ResetCamera"}
}

// ApplyEdits applies an edit intent to a plan and returns the edited
// copy. This is the deterministic "language-to-delta" competence every
// simulated model shares: the model receives the current plan as JSON
// and the utterance, and answers with the full target plan.
func ApplyEdits(cur *plan.Plan, intent EditIntent) *plan.Plan {
	p := cur.Clone()
	for _, e := range intent.Edits {
		switch e.Kind {
		case EditRemove:
			p = removeClassStage(p, e.Class)
		case EditRetarget:
			retargetStage(p, e.Class, e.Target)
		case EditAddOrSet:
			p = addOrSetStage(p, e)
		case EditColorBy:
			for _, st := range p.Stages {
				if st.Kind == plan.StageDisplay {
					st.SetProp(plan.PropColorArray, plan.AssocV("POINTS", e.Array), 0)
					st.SetProp(plan.PropRescaleTF, plan.BoolV(true), 0)
				}
			}
		case EditSolidColor:
			if d := mainDisplay(p); d != nil {
				d.SetProp(plan.PropColorArray, plan.ListV(plan.StrV("POINTS"), plan.NoneV()), 0)
				if rgb, ok := colorVecs[e.Str]; ok {
					d.SetProp("DiffuseColor", plan.NumsV(rgb[0], rgb[1], rgb[2]), 0)
				}
				d.SetProp("LineWidth", plan.NumV(2.0), 0)
			}
		case EditCamera:
			for _, st := range p.Stages {
				if st.Kind == plan.StageView {
					st.Camera = cameraOpsForDirection(e.View)
				}
			}
		case EditScreenshot:
			for _, st := range p.Stages {
				if st.Kind == plan.StageScreenshot {
					st.SetProp(plan.PropFilename, plan.StrV(e.Str), 0)
				}
			}
		case EditRepresentation:
			if d := mainDisplay(p); d != nil {
				d.SetProp(plan.PropRepresentation, plan.StrV(e.Str), 0)
			}
		case EditResolution:
			res := plan.NumsV(float64(e.Width), float64(e.Height))
			for _, st := range p.Stages {
				switch st.Kind {
				case plan.StageView:
					st.SetProp("ViewSize", res, 0)
				case plan.StageScreenshot:
					st.SetProp(plan.PropImageResolution, res, 0)
				}
			}
		}
	}
	return p
}

// mainDisplay returns the first non-overlay display (falling back to the
// first display of any kind).
func mainDisplay(p *plan.Plan) *plan.Stage {
	var first *plan.Stage
	for _, st := range p.Stages {
		if st.Kind != plan.StageDisplay {
			continue
		}
		if first == nil {
			first = st
		}
		if len(st.Inputs) > 0 {
			src := p.Stage(st.Inputs[0])
			if src != nil && !overlayClasses[src.Class] {
				return st
			}
		}
	}
	return first
}

// addOrSetStage updates the existing stage of the edit's class, or
// inserts a new one after the utterance's parent (default: the trunk
// tail), retargeting the displays that showed the insertion point.
func addOrSetStage(p *plan.Plan, e PlanEdit) *plan.Plan {
	props := propsForOp(e.Op)
	if e.PlaneOnly {
		for name := range props {
			if name != "SliceType" && name != "ClipType" {
				delete(props, name)
			}
		}
	}
	if idx := findPipelineClass(p, e.Class); idx >= 0 {
		st := p.Stages[idx]
		for name, v := range props {
			st.SetProp(name, v, 0)
		}
		return p
	}
	parent := -1
	if e.Parent != "" {
		parent = findPipelineClass(p, e.Parent)
	}
	if parent < 0 {
		parent = trunkTail(p)
	}
	st := &plan.Stage{Kind: plan.StageFilter, Class: e.Class, ID: strings.ToLower(e.Class) + "New"}
	if parent >= 0 {
		st.Inputs = []int{parent}
	}
	for name, v := range props {
		st.SetProp(name, v, 0)
	}
	newIdx := p.Add(st)
	viewIdx := -1
	for i, vs := range p.Stages {
		if vs.Kind == plan.StageView {
			viewIdx = i
			break
		}
	}
	if overlayClasses[e.Class] {
		// Overlays get their own display next to the existing ones,
		// inheriting the main display's coloring.
		if viewIdx >= 0 {
			d := &plan.Stage{
				Kind: plan.StageDisplay, ID: st.ID + "Display",
				Class: plan.DisplayClass, Inputs: []int{newIdx, viewIdx},
			}
			if main := mainDisplay(p); main != nil {
				for _, name := range []string{plan.PropColorArray, plan.PropRescaleTF} {
					if v, ok := main.Props[name]; ok {
						d.SetProp(name, v, 0)
					}
				}
			}
			p.Add(d)
		}
		return p
	}
	// Ordinary filters splice into the trunk: displays that showed the
	// parent now show the new stage.
	for _, ds := range p.Stages {
		if ds.Kind == plan.StageDisplay && len(ds.Inputs) > 0 && ds.Inputs[0] == parent {
			ds.Inputs[0] = newIdx
		}
	}
	return p
}

// removeClassStage deletes the first pipeline stage of the class,
// rewiring dependents (and displays) to its input; displays left without
// a source — or duplicated by the rewiring — are dropped.
func removeClassStage(p *plan.Plan, class string) *plan.Plan {
	idx := findPipelineClass(p, class)
	if idx < 0 {
		return p
	}
	input := -1
	if len(p.Stages[idx].Inputs) > 0 {
		input = p.Stages[idx].Inputs[0]
	}
	q := &plan.Plan{Version: p.Version}
	remap := make([]int, len(p.Stages))
	for i, st := range p.Stages {
		if i == idx {
			remap[i] = -1
			continue
		}
		remap[i] = len(q.Stages)
		q.Stages = append(q.Stages, st)
	}
	var kept []*plan.Stage
	seenDisplay := map[string]bool{}
	for _, st := range q.Stages {
		ins := st.Inputs[:0]
		dropped := false
		for _, in := range st.Inputs {
			switch {
			case remap[in] >= 0:
				ins = append(ins, remap[in])
			case in == idx && input >= 0 && remap[input] >= 0:
				ins = append(ins, remap[input])
			default:
				dropped = true
			}
		}
		st.Inputs = ins
		if len(st.Inputs) == 0 {
			st.Inputs = nil
		}
		if dropped && (st.Kind == plan.StageDisplay || st.IsPipeline()) {
			continue // lost its source entirely
		}
		if st.Kind == plan.StageDisplay {
			key := fmt.Sprintf("%v", st.Inputs)
			if seenDisplay[key] {
				continue // rewiring collapsed two displays onto one source
			}
			seenDisplay[key] = true
		}
		kept = append(kept, st)
	}
	// Dropping stages shifted indices; remap the kept stages' inputs.
	final := &plan.Plan{Version: p.Version}
	pos := map[*plan.Stage]int{}
	for _, st := range kept {
		pos[st] = final.Add(st)
	}
	for _, st := range kept {
		ins := st.Inputs[:0]
		for _, in := range st.Inputs {
			if in < len(q.Stages) {
				if at, ok := pos[q.Stages[in]]; ok {
					ins = append(ins, at)
				}
			}
		}
		st.Inputs = ins
		if len(st.Inputs) == 0 {
			st.Inputs = nil
		}
	}
	return final
}

// retargetStage reconnects the class stage onto the target class stage,
// refusing edits that would create a cycle.
func retargetStage(p *plan.Plan, class, target string) {
	from := findPipelineClass(p, class)
	onto := findPipelineClass(p, target)
	if from < 0 || onto < 0 || from == onto {
		return
	}
	// Reject cycles: is `from` upstream of `onto`?
	var reaches func(i, goal int) bool
	reaches = func(i, goal int) bool {
		if i == goal {
			return true
		}
		for _, in := range p.Stages[i].Inputs {
			if reaches(in, goal) {
				return true
			}
		}
		return false
	}
	if reaches(onto, from) {
		return
	}
	p.Stages[from].Inputs = []int{onto}
}

// Prompt framing of the PlanDelta path. EditSystem carries the marker
// phrase the simulated models dispatch on; the user payload wraps the
// current plan JSON and the raw utterance.
const EditSystem = `You are an expert in ParaView pipeline editing.
The user has an existing visualization pipeline, given below as a JSON plan.
Apply the user's requested change to the pipeline plan and return the complete
updated plan as JSON in the same schema, with no commentary.`

// Plan-edit prompt markers.
const (
	planEditOpen  = "--- CURRENT PLAN ---"
	planEditClose = "--- END CURRENT PLAN ---"
	editReqOpen   = "--- EDIT REQUEST ---"
	editReqClose  = "--- END EDIT REQUEST ---"
)

// BuildPlanEditUser formats the PlanDelta user prompt: current plan JSON
// plus the follow-up utterance.
func BuildPlanEditUser(cur *plan.Plan, utterance string) string {
	blob, err := cur.Encode()
	if err != nil {
		blob = []byte("{}")
	}
	return fmt.Sprintf("%s\n%s%s\n%s\n%s\n%s\n",
		planEditOpen, blob, planEditClose, editReqOpen, utterance, editReqClose)
}

// BuildPlanDeltaRepairUser formats the pre-execution repair prompt for a
// proposed plan that failed schema validation: the plan JSON plus the
// structured diagnostics, mirroring BuildPlanRepairUser for scripts.
func BuildPlanDeltaRepairUser(p *plan.Plan, diags []plan.Diagnostic) string {
	blob, err := p.Encode()
	if err != nil {
		blob = []byte("{}")
	}
	dj, err := json.MarshalIndent(diags, "", "  ")
	if err != nil {
		dj = []byte("[]")
	}
	return fmt.Sprintf("The following pipeline plan failed validation against the ParaView API. Fix every reported problem and return the complete corrected plan as JSON.\n%s\n%s%s\n%s\n%s\n%s\n",
		planEditOpen, blob, planEditClose, planDiagOpen, dj, planDiagClose)
}

// ParsePlanText extracts and decodes a plan JSON document from model
// response text (markdown fences and surrounding prose tolerated).
func ParsePlanText(text string) (*plan.Plan, error) {
	start := strings.Index(text, "{")
	end := strings.LastIndex(text, "}")
	if start < 0 || end <= start {
		return nil, fmt.Errorf("llm: response carries no plan JSON")
	}
	return plan.Decode([]byte(text[start : end+1]))
}

// RepairPlanDoc fixes a plan against its validation diagnostics at the
// given skill level: 0 returns it unchanged, 1+ deletes the offending
// properties, camera operations and stages. It is the plan-document
// sibling of RepairPlan (which patches script text).
func RepairPlanDoc(p *plan.Plan, diags []plan.Diagnostic, skill int) *plan.Plan {
	if skill <= 0 || len(diags) == 0 {
		return p
	}
	q := p.Clone()
	dropStages := map[string]bool{}
	for _, d := range diags {
		if d.Severity != plan.SevError {
			continue
		}
		switch {
		case d.Kind == plan.DiagUnknownClass:
			dropStages[d.Stage] = true
		case d.Property != "":
			for _, st := range q.Stages {
				if st.ID != d.Stage {
					continue
				}
				if _, ok := st.Props[d.Property]; ok {
					delete(st.Props, d.Property)
					continue
				}
				// Helper-member and camera-op findings name the inner
				// property; scrub both.
				for name, v := range st.Props {
					if v.Kind == plan.KindHelper {
						delete(v.Obj, d.Property)
						st.Props[name] = v
					}
				}
				var cam []string
				for _, op := range st.Camera {
					if op != d.Property {
						cam = append(cam, op)
					}
				}
				st.Camera = cam
			}
		}
	}
	if len(dropStages) == 0 {
		return q
	}
	ids := make([]string, 0, len(dropStages))
	for id := range dropStages {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		for i, st := range q.Stages {
			if st.ID == id {
				q = removeStageAt(q, i)
				break
			}
		}
	}
	return q
}

// removeStageAt deletes one stage by index, rewiring dependents to its
// first input (reusing the class-removal machinery).
func removeStageAt(p *plan.Plan, idx int) *plan.Plan {
	if idx < 0 || idx >= len(p.Stages) {
		return p
	}
	// Tag the stage with a unique sentinel class and reuse removal.
	saved := p.Stages[idx].Class
	p.Stages[idx].Class = "\x00doomed"
	q := removeClassStage(p, "\x00doomed")
	for _, st := range q.Stages {
		if st.Class == "\x00doomed" {
			st.Class = saved
		}
	}
	return q
}
