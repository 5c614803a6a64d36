package pvsim

import (
	"context"
	"fmt"
	"maps"
	"sort"

	"chatvis/internal/plan"
	"chatvis/internal/pypy"
)

// A script runs in one way: the interpreter executes it against live
// proxies, which record what it built, showed and saved; at its end the
// engine lowers them to a plan, and ExecPlan renders every screenshot
// from that plan. The plan is therefore exactly what ran, and a session
// that adopts it renders the same picture on its next edit.

// shotRecord is one SaveScreenshot call: where the script made it, the
// view and arguments it named, and what the view showed then.
type shotRecord struct {
	line  int
	view  *Proxy
	props map[string]plan.Value
	saw   [3]string // scene.digest()
}

// Run interprets a script on the engine and renders the screenshots it
// saved. ctx (nil for none) is threaded into filter execution and
// rendering. On success it returns the normalized plan the script
// lowered to, and Screenshots lists the saved images in that plan's
// order. A failure is the interpreter's *pypy.SyntaxError or
// *pypy.PyError, or a PyError at the line of the SaveScreenshot whose
// picture the plan could not render.
func (e *Engine) Run(ctx context.Context, interp *pypy.Interp, script string) (*plan.Plan, error) {
	if ctx != nil {
		e.ExecCtx = ctx
	}
	e.resetDisplayState()
	simple := e.BuildSimpleModule()
	interp.RegisterModule(simple)
	// Real paraview.simple contains `import paraview` at module top, so a
	// star-import also binds the package name — scripts rely on it for
	// `paraview.simple._DisableFirstRenderCameraReset()`.
	simple.Attrs["paraview"] = interp.Modules["paraview"]
	if err := interp.Run(script); err != nil {
		return nil, err
	}
	saw := e.shots
	p := plan.Normalize(e.lower(), PlanSchema())
	// The stages the script computed answer the plan's; if the plan
	// fails, they leave the memo again, so a failed round never answers
	// a later one.
	memo := maps.Clone(e.planProxies)
	e.memoize()
	if _, err := e.execPlan(ctx, p, saw); err != nil {
		e.planProxies = memo
		return nil, err
	}
	return p, nil
}

// memoize enters every pipeline proxy the script computed into the
// plan memo under its content key. A proxy whose key changed after it
// was computed (a helper property set later) stays out.
func (e *Engine) memoize() {
	if e.planProxies == nil {
		e.planProxies = map[string]*Proxy{}
	}
	for _, p := range e.Pipeline {
		if p.dirty || p.dataset == nil || p.key == "" {
			continue
		}
		if key, err := e.contentKey(p); err != nil || key != p.key {
			continue
		}
		if m := e.planProxies[p.key]; m == nil || m.dataset == nil {
			e.planProxies[p.key] = p
		}
	}
}

// lower converts the live proxies to a plan: every pipeline proxy in
// creation order, the views, a display per representation and a
// screenshot stage per SaveScreenshot. Property values with no plan
// form, or of a type the schema refuses, are left out; ExecPlan's
// screenshot check then fails the run if one of them mattered.
func (e *Engine) lower() *plan.Plan {
	schema := PlanSchema()
	p := plan.New()
	at := map[*Proxy]int{}
	var stage func(x *Proxy) int
	stage = func(x *Proxy) int {
		if i, ok := at[x]; ok {
			return i
		}
		st := &plan.Stage{Kind: plan.StageFilter, Class: x.Class.name, ID: x.RegName}
		if x.Class.kind == kindSource {
			st.Kind = plan.StageSource
		}
		if x.Input != nil {
			st.Inputs = []int{stage(x.Input)}
		}
		lowerProps(st, schema.Class(st.Class), x.Props, nil)
		at[x] = p.Add(st)
		return at[x]
	}
	for _, x := range e.Pipeline {
		stage(x)
	}
	for _, v := range e.Views {
		st := &plan.Stage{Kind: plan.StageView, Class: plan.ViewClass, Camera: v.camera}
		lowerProps(st, schema.Class(plan.ViewClass), v.Props, v.camBase)
		at[v] = p.Add(st)
	}
	reps := make([]*Proxy, 0, len(e.Reps))
	for _, rep := range e.Reps {
		stage(rep.repOf) // shown, then deleted from the pipeline
		reps = append(reps, rep)
	}
	sort.Slice(reps, func(i, j int) bool {
		a, b := reps[i], reps[j]
		if at[a.repOf] != at[b.repOf] {
			return at[a.repOf] < at[b.repOf]
		}
		return at[a.repView] < at[b.repView]
	})
	for _, rep := range reps {
		st := &plan.Stage{Kind: plan.StageDisplay, Class: plan.DisplayClass,
			Inputs: []int{stage(rep.repOf), at[rep.repView]}}
		lowerProps(st, schema.Class(plan.DisplayClass), rep.Props, nil)
		if rep.rescale != nil {
			st.SetProp(plan.PropRescaleTF, plan.BoolV(*rep.rescale), 0)
		}
		p.Add(st)
	}
	for i, shot := range e.shots {
		st := &plan.Stage{Kind: plan.StageScreenshot, Class: plan.ScreenshotClass,
			ID: fmt.Sprintf("screenshot%d", i+1), Line: shot.line, Inputs: []int{at[shot.view]}}
		for name, v := range shot.props {
			st.SetProp(name, v, 0)
		}
		p.Add(st)
	}
	return p
}

// lowerProps sets a stage's properties from a proxy's, taking a value
// from over first when it has one.
func lowerProps(st *plan.Stage, cls *plan.Class, props, over map[string]pypy.Value) {
	for name, v := range props {
		if name == "Input" {
			continue // the stage's input edge
		}
		if o, ok := over[name]; ok {
			v = o
		}
		prop := cls.Props[name]
		if pv, ok := lowerValue(prop.Type, v); ok && (pv.Kind != plan.KindNone || prop.Default != nil) {
			st.SetProp(name, pv, 0) // None without a default is unset
		}
	}
}

// lowerValue converts a property value the schema accepts; a helper
// value keeps the members it accepts.
func lowerValue(t plan.PropType, v pypy.Value) (plan.Value, bool) {
	pv, ok := pyToPlanValue(v)
	if !ok || !plan.TypeAccepts(t, pv) {
		return plan.Value{}, false
	}
	if pv.Kind != plan.KindHelper {
		return pv, true
	}
	hcls := PlanSchema().Class(pv.Class)
	if hcls == nil || hcls.Kind != "helper" {
		return plan.Value{}, false
	}
	for name, mv := range pv.Obj {
		if !plan.TypeAccepts(hcls.Props[name].Type, mv) {
			delete(pv.Obj, name)
		}
	}
	return pv, true
}

// checkShots holds a lowered plan's screenshots to what the script saw:
// every SaveScreenshot call needs a stage at its line, with its file
// name, that shows what the call recorded. A call without one saw a
// picture that depends on statement order the plan does not keep (a
// change after the screenshot, a camera property set after a camera
// operation, a colour range that depends on display order, no camera
// reset after _DisableFirstRenderCameraReset()); the run fails at that
// call's line rather than render a different picture.
func checkShots(shots []*planShot, saw []shotRecord) error {
	for _, rec := range saw {
		// Name the first part that differs: the frame, the camera or
		// the displayed data.
		what := "displayed data"
		for _, shot := range shots {
			if shot.st.Line != rec.line || shotFilename(shot.st) != rec.props[plan.PropFilename].Str {
				continue
			}
			got := shot.sc.digest()
			if got == rec.saw {
				what = ""
				break
			}
			if got[0] != rec.saw[0] {
				what = "image size or background"
			} else if got[1] != rec.saw[1] {
				what = "camera"
			}
		}
		if what != "" {
			return &pypy.PyError{Kind: "RuntimeError", Line: rec.line, Msg: fmt.Sprintf(
				"SaveScreenshot: the %s this screenshot shows depends on the order of the script's statements, which a pipeline plan does not keep", what)}
		}
	}
	return nil
}
