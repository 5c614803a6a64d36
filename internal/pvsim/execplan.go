package pvsim

import (
	"context"
	"fmt"
	"strings"

	"chatvis/internal/obs"
	"chatvis/internal/plan"
	"chatvis/internal/pypy"
	"chatvis/internal/render"
	"chatvis/internal/vmath"
)

// ExecPlan executes a plan against the engine and returns the
// references of the screenshots this call saved. It renders every
// screenshot: an edit turn's plan, and the plan each script lowers to
// (Run).
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
	return e.execPlan(ctx, p, nil)
}

// execPlan is ExecPlan. With saw set, the plan is one a script lowered
// to, and each screenshot must show what the script's SaveScreenshot
// recorded.
func (e *Engine) execPlan(ctx context.Context, p *plan.Plan, saw []shotRecord) ([]string, error) {
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

	// Pass 3: screenshots. Every one is checked before any is drawn.
	var shots []*planShot
	for _, st := range p.Stages {
		if st.Kind != plan.StageScreenshot {
			continue
		}
		shot, err := e.planScreenshot(st, proxies)
		if err != nil {
			return nil, atLine(err, st.Line)
		}
		shots = append(shots, shot)
	}
	if saw != nil {
		if err := checkShots(shots, saw); err != nil {
			return nil, err
		}
	}
	for _, shot := range shots {
		if err := e.writeScreenshot(shot); err != nil {
			return nil, atLine(err, shot.st.Line)
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
	e.shots = nil
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
// The view records the operation for its plan.
func (e *Engine) applyCameraOp(view *Proxy, op string) {
	op = strings.Replace(op, "ResetActiveCameraToIsometricView", "ApplyIsometricView", 1)
	e.cameraMoved(view)
	view.camera = append(view.camera, op)
	if op == "ResetCamera" {
		e.resetCamera(view)
	} else if dir, ok := cameraDirs[op]; ok {
		e.lookFrom(view, dir)
	}
}

// planShot is one screenshot stage ready to draw.
type planShot struct {
	st   *plan.Stage
	name string // the confined file name
	sc   *scene
}

// planScreenshot brings a screenshot stage's view up to date and
// resolves what it shows.
func (e *Engine) planScreenshot(st *plan.Stage, proxies []*Proxy) (*planShot, error) {
	if len(st.Inputs) < 1 || proxies[st.Inputs[0]] == nil {
		return nil, raiseRT("screenshot stage %s has no resolved view", st.ID)
	}
	view := proxies[st.Inputs[0]]
	var size []float64
	if res, ok := st.Props[plan.PropImageResolution]; ok && res.Kind == plan.KindList && len(res.List) >= 2 {
		size = []float64{res.List[0].Num, res.List[1].Num}
	}
	w, h, err := renderSize(size)
	if err != nil {
		return nil, err
	}
	palette := ""
	if v, ok := st.Props[plan.PropOverridePalette]; ok && v.Kind == plan.KindStr {
		palette = v.Str
	}
	name, err := localName("SaveScreenshot", "output", shotFilename(st))
	if err != nil {
		return nil, err
	}
	if err := e.updateView(view); err != nil {
		return nil, err
	}
	sc, err := e.viewScene(view, w, h, palette)
	if err != nil {
		return nil, err
	}
	return &planShot{st: st, name: name, sc: sc}, nil
}

// shotFilename is a screenshot stage's file name as the script gave it.
func shotFilename(st *plan.Stage) string {
	if v, ok := st.Props[plan.PropFilename]; ok && v.Kind == plan.KindStr {
		return v.Str
	}
	return "screenshot.png"
}

// writeScreenshot renders a screenshot, encodes it as PNG and hands it
// to the sink.
func (e *Engine) writeScreenshot(shot *planShot) error {
	img, err := e.renderScene(shot.sc)
	if err != nil {
		return err
	}
	// screenshot.write times the encode and the sink's write.
	_, span := obs.Start(e.execCtx(), "screenshot.write")
	span.SetAttr("width", img.Rect.Dx())
	span.SetAttr("height", img.Rect.Dy())
	var ref string
	err = render.EncodePNG(pngWriter(func(png []byte) (err error) {
		span.SetAttr("bytes", len(png))
		ref, err = e.Sink.PutScreenshot(shot.name, png)
		return err
	}), img)
	span.SetError(err)
	span.End()
	if err != nil {
		return raiseRT("SaveScreenshot: %v", err)
	}
	e.Screenshots = append(e.Screenshots, ref)
	e.Rendered[ref] = img
	return nil
}

// atLine places a runtime error at a script line, for an error a
// screenshot stage raised when the script ran as its plan.
func atLine(err error, line int) error {
	pe, ok := err.(*pypy.PyError)
	if !ok || pe.Line != 0 || line == 0 {
		return err
	}
	at := *pe
	at.Line = line
	return &at
}
