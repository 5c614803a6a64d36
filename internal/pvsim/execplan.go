package pvsim

import (
	"context"
	"fmt"
	"strings"

	"chatvis/internal/plan"
	"chatvis/internal/pypy"
	"chatvis/internal/vmath"
)

// ExecPlan executes a compiled plan directly against the engine — no
// interpreter pass — and returns the references of the screenshots this
// call saved.
//
// Execution is incremental: the engine memoizes every pipeline proxy it
// builds across ExecPlan calls, keyed by the proxy's content key (class,
// canonical props, input chain, reader file identity). Re-executing a
// plan in which a repair iteration changed one property therefore
// re-runs only the changed stage and its downstream — upstream stages
// keep their computed datasets, and Engine.Executions() advances only by
// the changed-stage count. The same key addresses the process-wide
// DataCache, so stages recomputed here still hit it when any other
// engine computed them first.
//
// The plan must validate cleanly; plans with error diagnostics are
// refused before any stage runs (callers get structured diagnostics from
// plan.Validate or Compile — the cheap path — rather than a mid-run
// failure).
func (e *Engine) ExecPlan(ctx context.Context, p *plan.Plan) ([]string, error) {
	if diags := plan.Errors(plan.Validate(p, PlanSchema())); len(diags) > 0 {
		return nil, &pypy.PyError{
			Kind: "RuntimeError",
			Msg:  fmt.Sprintf("plan validation failed: %s", diags[0].Message),
		}
	}
	// The single in-order pass below requires inputs to precede their
	// dependents. Compile and Normalize both guarantee that; a decoded
	// plan merely guaranteed acyclic is rejected up front rather than
	// failing mid-run on a nil proxy.
	for i, st := range p.Stages {
		for _, in := range st.Inputs {
			if in >= i {
				return nil, raiseRT("plan stages are not topologically ordered (stage %s depends on a later stage)", st.ID)
			}
		}
	}
	if ctx != nil {
		e.ExecCtx = ctx
	}
	if e.planProxies == nil {
		e.planProxies = map[string]*Proxy{}
	}
	e.resetDisplayState()

	proxies := make([]*Proxy, len(p.Stages))

	// Pass 1: pipeline stages, views and displays, in plan order.
	for i, st := range p.Stages {
		switch {
		case st.IsPipeline():
			prox, err := e.buildPlanProxy(st, proxies)
			if err != nil {
				return nil, err
			}
			// An unhashable proxy is simply not memoized.
			if key, err := e.contentKey(prox); err == nil {
				if memo, ok := e.planProxies[key]; ok {
					prox = memo
				}
				e.planProxies[key] = prox
			}
			proxies[i] = prox
			e.Pipeline = append(e.Pipeline, prox)
			e.ActiveSource = prox
		case st.Kind == plan.StageView:
			v, _ := e.createView()
			proxies[i] = v.(*Proxy)
			proxies[i].RegName = st.ID
			if err := e.setPlanProps(proxies[i], st.Props, ""); err != nil {
				return nil, err
			}
		case st.Kind == plan.StageDisplay:
			if err := e.execPlanDisplay(st, proxies); err != nil {
				return nil, err
			}
		}
	}

	// Pass 2: camera operations, per view, in recorded order (scripts
	// orient the camera after showing everything).
	for i, st := range p.Stages {
		if st.Kind != plan.StageView {
			continue
		}
		for _, op := range st.Camera {
			e.applyCameraOp(proxies[i], op)
		}
	}

	// Pass 3: screenshots.
	for _, st := range p.Stages {
		if st.Kind != plan.StageScreenshot {
			continue
		}
		if err := e.execPlanScreenshot(st, proxies); err != nil {
			return nil, err
		}
	}
	return e.Screenshots, nil
}

// resetDisplayState starts a plan run from a fresh session, so a warm
// engine renders a plan exactly as a cold one does: only memoized
// pipeline proxies carry over between runs. The screenshot log starts
// empty too, so a long-lived engine holds only its last run's images.
func (e *Engine) resetDisplayState() {
	e.Screenshots = nil
	clear(e.Rendered)
	e.Pipeline, e.Views, e.Layouts = nil, nil, nil
	e.Reps = map[repKey]*Proxy{}
	e.ActiveSource, e.ActiveView = nil, nil
	e.colorTFs = map[string]*Proxy{}
	e.opacityTFs = map[string]*Proxy{}
	e.tfRanges = map[string]*tfRange{}
	e.firstRenderResetDisabled = false
	e.renderedOnce = map[*Proxy]bool{}
}

// setPlanProps converts plan properties onto a proxy, leaving out the
// plan marker skip.
func (e *Engine) setPlanProps(p *Proxy, props map[string]plan.Value, skip string) error {
	for name, v := range props {
		if name == skip {
			continue
		}
		pv, err := e.planToPyValue(v)
		if err != nil {
			return err
		}
		p.Props[name] = pv
	}
	return nil
}

// buildPlanProxy instantiates the proxy for a pipeline stage.
func (e *Engine) buildPlanProxy(st *plan.Stage, proxies []*Proxy) (*Proxy, error) {
	schema := e.schema(st.Class)
	if schema == nil {
		return nil, raiseRT("cannot execute plan stage of class %s", st.Class)
	}
	// A normalized plan folds a default-valued SliceType/ClipType away
	// entirely; execution still sees the default helper the script path
	// would have.
	prox := e.newPipelineProxy(schema)
	prox.RegName = st.ID
	if err := e.setPlanProps(prox, st.Props, ""); err != nil {
		return nil, err
	}
	if len(st.Inputs) > 0 {
		prox.Input = proxies[st.Inputs[0]]
	}
	return prox, nil
}

// execPlanDisplay realizes a display stage: representation creation plus
// the ColorBy / representation-type / rescale effects, with the same
// pipeline execution Show performs.
func (e *Engine) execPlanDisplay(st *plan.Stage, proxies []*Proxy) error {
	if len(st.Inputs) < 2 {
		return raiseRT("display stage %s has no resolved view", st.ID)
	}
	src, view := proxies[st.Inputs[0]], proxies[st.Inputs[1]]
	if src == nil || view == nil {
		return raiseRT("display stage %s references an unexecuted stage", st.ID)
	}
	rep, err := e.showIn(src, view)
	if err != nil {
		return err
	}
	if err := e.setPlanProps(rep, st.Props, plan.PropRescaleTF); err != nil {
		return err
	}
	// ColorBy initializes the array's range.
	if ca := st.Props[plan.PropColorArray]; len(ca.List) == 2 && ca.List[1].Kind == plan.KindStr {
		ds, _ := e.Dataset(src)
		e.tfRangeFor(ca.List[1].Str, ds)
	}
	if v, ok := st.Props[plan.PropRescaleTF]; ok && v.Kind == plan.KindBool {
		e.rescaleRepTF(rep, v.Bool)
	}
	return nil
}

// cameraDirs are the view methods that reorient the camera to look at
// the visible bounds from a direction.
var cameraDirs = map[string]vmath.Vec3{
	"ApplyIsometricView":           vmath.V(1, 1, 1),
	"ResetActiveCameraToPositiveX": vmath.V(1, 0, 0),
	"ResetActiveCameraToNegativeX": vmath.V(-1, 0, 0),
	"ResetActiveCameraToPositiveY": vmath.V(0, 1, 0),
	"ResetActiveCameraToNegativeY": vmath.V(0, -1, 0),
	"ResetActiveCameraToPositiveZ": vmath.V(0, 0, 1),
	"ResetActiveCameraToNegativeZ": vmath.V(0, 0, -1),
}

// applyCameraOp performs one camera operation on a view: ResetCamera or
// a cameraDirs reorientation (the module-level
// ResetActiveCameraToIsometricView is ApplyIsometricView).
func (e *Engine) applyCameraOp(view *Proxy, op string) {
	if op == "ResetCamera" {
		e.resetCamera(view)
	} else if dir, ok := cameraDirs[strings.Replace(op, "ResetActiveCameraToIsometricView", "ApplyIsometricView", 1)]; ok {
		e.lookFrom(view, dir)
	}
}

// execPlanScreenshot renders and saves one screenshot stage.
func (e *Engine) execPlanScreenshot(st *plan.Stage, proxies []*Proxy) error {
	if len(st.Inputs) < 1 || proxies[st.Inputs[0]] == nil {
		return raiseRT("screenshot stage %s has no resolved view", st.ID)
	}
	w, h := 0, 0
	if res, ok := st.Props[plan.PropImageResolution]; ok && res.Kind == plan.KindList && len(res.List) >= 2 {
		w, h = int(res.List[0].Num), int(res.List[1].Num)
	}
	palette := ""
	if v, ok := st.Props[plan.PropOverridePalette]; ok && v.Kind == plan.KindStr {
		palette = v.Str
	}
	filename := "screenshot.png"
	if v, ok := st.Props[plan.PropFilename]; ok && v.Kind == plan.KindStr {
		filename = v.Str
	}
	return e.writeScreenshot(proxies[st.Inputs[0]], filename, w, h, palette)
}
