// Package plan defines the typed pipeline-plan IR: a canonical,
// serializable DAG of visualization stages compiled from ParaView Python
// script text (or built programmatically), validated against a proxy
// schema derived from what the engine actually implements.
//
// The IR is the shared currency between the layers of the reproduction:
// the writer emits the plan it intends, the runner compiles every script
// it executes into one, the engine can execute a plan directly (and
// incrementally, re-running only stages whose canonical subtree hash
// changed), repair consumes pre-execution validation diagnostics, eval
// scores plan-graph similarity, and chatvisd coalesces requests on the
// normalized plan hash instead of raw prompt text.
package plan

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Stage kinds.
const (
	StageSource     = "source"
	StageFilter     = "filter"
	StageView       = "view"
	StageDisplay    = "display"
	StageScreenshot = "screenshot"
)

// Classes of the non-proxy stage kinds.
const (
	// DisplayClass is the representation class a display stage carries.
	DisplayClass = "GeometryRepresentation"
	// ViewClass is the render-view class.
	ViewClass = "RenderView"
	// ScreenshotClass is the pseudo-class of screenshot stages (there is
	// no proxy behind SaveScreenshot; the stage captures its arguments).
	ScreenshotClass = "Screenshot"
)

// Reserved stage property names that are plan markers rather than proxy
// properties.
const (
	// PropViewName records a display whose view was referenced by name
	// string instead of a proxy (the unassisted-GPT-4 failure mode);
	// validation reports it, execution refuses it.
	PropViewName = "ViewName"
	// PropRescaleTF marks a RescaleTransferFunctionToDataRange call on a
	// display; its boolean value is the call's extend argument. The name
	// deliberately matches the proxy method so schema validation accepts
	// it as a member.
	PropRescaleTF = "RescaleTransferFunctionToDataRange"
	// PropColorArray is the representation's color-array pair, written by
	// ColorBy or direct assignment.
	PropColorArray = "ColorArrayName"
	// PropRepresentation is the representation type, written by
	// SetRepresentationType or direct assignment.
	PropRepresentation = "Representation"
)

// Screenshot stage property names.
const (
	PropFilename        = "Filename"
	PropImageResolution = "ImageResolution"
	PropOverridePalette = "OverrideColorPalette"
)

// Stage is one node of the pipeline DAG: a source or filter proxy, a
// render view, a representation (display), or a screenshot capture.
type Stage struct {
	// ID names the stage; Normalize regenerates IDs canonically.
	ID string `json:"id"`
	// Kind classifies the stage (source/filter/view/display/screenshot).
	Kind string `json:"kind"`
	// Class is the proxy class (or pseudo-class) the stage instantiates.
	Class string `json:"class"`
	// Inputs are indices into Plan.Stages. Pipeline stages have at most
	// one input; display stages have [pipeline, view] (the view entry is
	// absent when the script referenced the view by name); screenshot
	// stages have [view].
	Inputs []int `json:"inputs,omitempty"`
	// Props is the stage's typed property bag. Unknown (hallucinated)
	// properties are recorded too — validation flags them, and script
	// rendering reproduces them so plans round-trip faithfully.
	Props map[string]Value `json:"props,omitempty"`
	// Camera is the ordered camera-operation list of a view stage
	// (ResetCamera, ApplyIsometricView, ResetActiveCameraTo*...).
	Camera []string `json:"camera,omitempty"`

	// Line is the 1-based source line of the constructing statement
	// (0 for programmatically built plans). Not serialized.
	Line int `json:"-"`
	// PropLines locates individual property assignments for diagnostics.
	// Not serialized.
	PropLines map[string]int `json:"-"`
}

// SetProp records a property value, tracking its source line.
func (st *Stage) SetProp(name string, v Value, line int) {
	if st.Props == nil {
		st.Props = map[string]Value{}
	}
	st.Props[name] = v
	if line > 0 {
		if st.PropLines == nil {
			st.PropLines = map[string]int{}
		}
		st.PropLines[name] = line
	}
}

// propLine returns the best-known source line for a property.
func (st *Stage) propLine(name string) int {
	if n, ok := st.PropLines[name]; ok {
		return n
	}
	return st.Line
}

// IsPipeline reports whether the stage is a source or filter.
func (st *Stage) IsPipeline() bool {
	return st.Kind == StageSource || st.Kind == StageFilter
}

// Version tags the serialized plan layout.
const Version = 1

// Plan is a pipeline DAG in (or convertible to) canonical form.
type Plan struct {
	Version int      `json:"version"`
	Stages  []*Stage `json:"stages"`
}

// New returns an empty plan at the current version.
func New() *Plan { return &Plan{Version: Version} }

// Add appends a stage and returns its index.
func (p *Plan) Add(st *Stage) int {
	p.Stages = append(p.Stages, st)
	return len(p.Stages) - 1
}

// Stage returns the stage at index i (nil when out of range).
func (p *Plan) Stage(i int) *Stage {
	if i < 0 || i >= len(p.Stages) {
		return nil
	}
	return p.Stages[i]
}

// FindClass returns the index of the first stage of the given class, or
// -1.
func (p *Plan) FindClass(class string) int {
	for i, st := range p.Stages {
		if st.Class == class {
			return i
		}
	}
	return -1
}

// PipelineEdges lists dataflow edges "UpstreamClass->DownstreamClass"
// over the pipeline stages, in stage order.
func (p *Plan) PipelineEdges() []string {
	var edges []string
	for _, st := range p.Stages {
		if !st.IsPipeline() {
			continue
		}
		for _, in := range st.Inputs {
			if up := p.Stage(in); up != nil && up.IsPipeline() {
				edges = append(edges, up.Class+"->"+st.Class)
			}
		}
	}
	return edges
}

// Encode renders the plan as deterministic, indented JSON (map keys are
// sorted by encoding/json, so semantically equal normalized plans are
// byte-equal).
func (p *Plan) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Decode parses a serialized plan.
func Decode(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("plan: decoding: %w", err)
	}
	if p.Version != Version {
		return nil, fmt.Errorf("plan: unsupported version %d", p.Version)
	}
	for _, st := range p.Stages {
		for _, in := range st.Inputs {
			if in < 0 || in >= len(p.Stages) {
				return nil, fmt.Errorf("plan: stage %s has out-of-range input %d", st.ID, in)
			}
		}
	}
	// Reject cycles: hashing, normalization and execution all recurse
	// over Inputs and must never see one (compiled and built plans are
	// DAGs by construction; decoded bytes are not trusted).
	if err := p.checkAcyclic(); err != nil {
		return nil, err
	}
	return &p, nil
}

// checkAcyclic verifies the Inputs edges form a DAG (Kahn count).
func (p *Plan) checkAcyclic() error {
	n := len(p.Stages)
	indeg := make([]int, n)
	dependents := make([][]int, n)
	for i, st := range p.Stages {
		for _, in := range st.Inputs {
			indeg[i]++
			dependents[in] = append(dependents[in], i)
		}
	}
	var ready []int
	for i := range indeg {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	seen := 0
	for len(ready) > 0 {
		next := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		seen++
		for _, d := range dependents[next] {
			indeg[d]--
			if indeg[d] == 0 {
				ready = append(ready, d)
			}
		}
	}
	if seen != n {
		return fmt.Errorf("plan: stage inputs form a cycle")
	}
	return nil
}

// Equal reports whether two plans serialize identically (the byte-equal
// contract normalized plans are held to).
func (p *Plan) Equal(q *Plan) bool {
	if p == nil || q == nil {
		return p == q
	}
	pb, err1 := p.Encode()
	qb, err2 := q.Encode()
	return err1 == nil && err2 == nil && bytes.Equal(pb, qb)
}

// Clone deep-copies the plan (source-position metadata included).
func (p *Plan) Clone() *Plan {
	q := &Plan{Version: p.Version, Stages: make([]*Stage, len(p.Stages))}
	for i, st := range p.Stages {
		c := &Stage{ID: st.ID, Kind: st.Kind, Class: st.Class, Line: st.Line}
		c.Inputs = append([]int(nil), st.Inputs...)
		c.Camera = append([]string(nil), st.Camera...)
		if st.Props != nil {
			c.Props = make(map[string]Value, len(st.Props))
			for k, v := range st.Props {
				c.Props[k] = cloneValue(v)
			}
		}
		if st.PropLines != nil {
			c.PropLines = make(map[string]int, len(st.PropLines))
			for k, v := range st.PropLines {
				c.PropLines[k] = v
			}
		}
		q.Stages[i] = c
	}
	return q
}

func cloneValue(v Value) Value {
	switch v.Kind {
	case KindList:
		items := make([]Value, len(v.List))
		for i, it := range v.List {
			items[i] = cloneValue(it)
		}
		v.List = items
	case KindHelper:
		obj := make(map[string]Value, len(v.Obj))
		for k, pv := range v.Obj {
			obj[k] = cloneValue(pv)
		}
		v.Obj = obj
	}
	return v
}
