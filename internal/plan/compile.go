package plan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"

	"chatvis/internal/pypy"
)

// Compiled is the result of compiling script text to the IR.
type Compiled struct {
	// Plan is the extracted pipeline DAG, in construction order (not yet
	// normalized).
	Plan *Plan
	// Diags are the structured pre-execution findings: compile-shaped
	// ones (unknown methods, ColorBy on a pipeline proxy), unmodelled
	// statements, plus the full schema validation of the extracted plan.
	Diags []Diagnostic
	// VarClass maps every script variable the compiler resolved to the
	// proxy class it holds — the authoritative replacement for
	// name-pattern guessing in scriptcmp.
	VarClass map[string]string
}

// Compile statically compiles ParaView Python script text into a plan.
// It returns an error only when the script does not parse; semantic
// problems (hallucinated properties, view-by-name, type mismatches)
// become Diagnostics, and the offending constructs are still recorded in
// the plan so that rendering a compiled plan back to a script reproduces
// them — plans round-trip even for defective scripts.
func Compile(script string, s *Schema) (*Compiled, error) {
	mod, err := pypy.Parse("script.py", script)
	if err != nil {
		return nil, err
	}
	return CompileModule(mod, s), nil
}

// CompileModule compiles an already-parsed module — for callers (like
// scriptcmp) that walk the same AST themselves and should not pay for a
// second parse.
func CompileModule(mod *pypy.Module, s *Schema) *Compiled {
	if s == nil {
		// Schema-less compilation: parse-only extraction, every member
		// check reports unknown (callers use pvsim.PlanSchema normally).
		s = &Schema{Classes: map[string]*Class{}}
	}
	c := &compiler{
		schema:     s,
		plan:       New(),
		vars:       map[string]int{},
		varClass:   map[string]string{},
		locals:     map[string]bool{},
		active:     -1,
		activeView: -1,
	}
	c.stmts(mod.Body)
	c.checkOrderEffects()
	diags := append(c.diags, Validate(c.plan, s)...)
	return &Compiled{Plan: c.plan, Diags: diags, VarClass: c.varClass}
}

type compiler struct {
	schema   *Schema
	plan     *Plan
	vars     map[string]int    // variable -> stage index
	varClass map[string]string // variable -> proxy class (incl. validate-only vars)
	locals   map[string]bool   // variables holding values with no plan form
	diags    []Diagnostic

	active     int // last pipeline stage (implicit filter input)
	activeView int // last view stage

	star     bool // from paraview.simple import * ran
	paraview bool // the name paraview is bound

	resetDisabled bool  // _DisableFirstRenderCameraReset() ran
	shots         int   // screenshots compiled so far
	updated       []int // stages the script called UpdatePipeline on
}

func (c *compiler) diag(d Diagnostic) { c.diags = append(c.diags, d) }

// partial reports a statement the plan drops or captures only in part.
func (c *compiler) partial(line int, format string, args ...interface{}) {
	c.diag(Diagnostic{Kind: DiagUnmodelled, Severity: SevInfo, Line: line, Message: fmt.Sprintf(format, args...)})
}

func (c *compiler) stmts(body []pypy.Stmt) {
	for _, st := range body {
		shots := c.shots
		var before []byte
		if shots > 0 {
			before, _ = json.Marshal(c.plan)
		}
		c.stmt(st)
		// The plan applies every setting before its first render.
		if after, _ := json.Marshal(c.plan); shots > 0 && shots == c.shots && !bytes.Equal(before, after) {
			c.partial(st.Line(), "pipeline changed after a screenshot was saved")
		}
	}
}

func (c *compiler) stmt(st pypy.Stmt) {
	switch s := st.(type) {
	case *pypy.Assign:
		call, isCall := s.Value.(*pypy.Call)
		var names []string
		for _, tgt := range s.Targets {
			switch t := tgt.(type) {
			case *pypy.Name:
				names = append(names, t.ID)
				if _, lit := exprValue(s.Value); !lit && !isCall {
					c.partial(s.Line(), "assignment of a computed value to '%s'", t.ID)
				}
				delete(c.vars, t.ID)
				delete(c.varClass, t.ID)
			case *pypy.Attribute:
				if isCall {
					c.partial(s.Line(), "attribute assigned a call result")
				} else {
					c.setAttr(t, s.Value, s.Line())
				}
			default:
				c.partial(s.Line(), "assignment target is not a name")
			}
		}
		if isCall {
			c.call(call, names, s.Line())
		}
		for _, n := range names {
			if _, bound := c.varClass[n]; !bound {
				c.local(n) // a value with no plan form
			}
		}
	case *pypy.ExprStmt:
		switch x := s.X.(type) {
		case *pypy.Call:
			c.call(x, nil, s.Line())
		case *pypy.StrLit: // docstring
		default:
			c.partial(s.Line(), "expression statement")
		}
	case *pypy.Import:
		if s.Alias != "" || s.Module != "paraview" && s.Module != "paraview.simple" {
			c.partial(s.Line(), "import of module '%s'", s.Module)
			return
		}
		c.paraview = true
	case *pypy.FromImport:
		if s.Module != "paraview.simple" || !s.Star {
			c.partial(s.Line(), "import from module '%s'", s.Module)
			return
		}
		c.star, c.paraview = true, true
	case *pypy.Pass:
	case *pypy.If:
		c.partial(s.Line(), "conditional statement")
		c.stmts(s.Body)
		c.stmts(s.Else)
	case *pypy.For:
		c.partial(s.Line(), "loop")
		c.stmts(s.Body)
	case *pypy.While:
		c.partial(s.Line(), "loop")
		c.stmts(s.Body)
	default:
		c.partial(st.Line(), "%T statement", st)
	}
}

// bind associates assignment targets with a stage.
func (c *compiler) bind(targets []string, idx int) {
	for _, t := range targets {
		c.vars[t] = idx
		c.varClass[t] = c.plan.Stages[idx].Class
		delete(c.locals, t)
	}
}

// bindClass records a validate-only variable (transfer functions,
// cameras): no stage, but member accesses are still checked.
func (c *compiler) bindClass(targets []string, class string) {
	for _, t := range targets {
		delete(c.vars, t)
		c.varClass[t] = class
		delete(c.locals, t)
	}
}

// local records a variable holding a value with no plan form.
func (c *compiler) local(name string) {
	delete(c.vars, name)
	delete(c.varClass, name)
	c.locals[name] = true
}

// stageArg resolves an argument naming a stage that satisfies want.
func (c *compiler) stageArg(e pypy.Expr, want func(*Stage) bool) (int, bool) {
	if n, ok := e.(*pypy.Name); ok {
		if idx, ok := c.vars[n.ID]; ok && want(c.plan.Stages[idx]) {
			return idx, true
		}
	}
	return -1, false
}

func isView(st *Stage) bool { return st.Kind == StageView }

func anyStage(*Stage) bool { return true }

// literalArgs reports whether every argument of a call is a literal or
// a bound variable, so evaluating the arguments cannot raise.
func (c *compiler) literalArgs(call *pypy.Call) bool {
	for _, e := range append(append([]pypy.Expr(nil), call.Args...), call.KwValues...) {
		n, isName := e.(*pypy.Name)
		if _, lit := exprValue(e); !lit && !(isName && (c.locals[n.ID] || c.varClass[n.ID] != "")) {
			return false
		}
	}
	return true
}

// exprValue lowers a literal expression to a Value. Non-literal
// expressions (names, arithmetic) report ok=false.
func exprValue(e pypy.Expr) (Value, bool) {
	switch v := e.(type) {
	case *pypy.NumLit:
		if v.IsInt {
			return IntV(v.Int), true
		}
		return NumV(v.Float), true
	case *pypy.StrLit:
		return StrV(v.Value), true
	case *pypy.BoolLit:
		return BoolV(v.Value), true
	case *pypy.NoneLit:
		return NoneV(), true
	case *pypy.ListLit:
		return seqValue(v.Elts)
	case *pypy.TupleLit:
		return seqValue(v.Elts)
	case *pypy.UnaryOp:
		if inner, ok := exprValue(v.X); ok && inner.Kind == KindNum {
			switch v.Op {
			case "-":
				inner.Num = -inner.Num
				return inner, true
			case "+":
				return inner, true
			}
		}
	}
	return Value{}, false
}

func seqValue(elts []pypy.Expr) (Value, bool) {
	items := make([]Value, len(elts))
	for i, e := range elts {
		v, ok := exprValue(e)
		if !ok {
			return Value{}, false
		}
		items[i] = v
	}
	return Value{Kind: KindList, List: items}, true
}

// isCameraOp reports whether a view method (or the module function of
// the same name, acting on the active view) is a camera operation.
func isCameraOp(name string) bool {
	return name == "ResetCamera" || name == "ApplyIsometricView" || strings.HasPrefix(name, "ResetActiveCameraTo")
}

// moduleNoEffect are the paraview.simple functions with no effect on
// what a script renders.
var moduleNoEffect = map[string]bool{
	"Interact": true, "UpdateScalarBars": true, "HideScalarBarIfNotNeeded": true,
	"GetParaViewVersion": true, "GetLayout": true, "CreateLayout": true,
	"GetActiveSource": true,
}

func (c *compiler) call(call *pypy.Call, targets []string, line int) {
	switch f := call.Func.(type) {
	case *pypy.Name:
		// A star import binds every public paraview.simple name.
		if !c.star || c.locals[f.ID] || strings.HasPrefix(f.ID, "_") {
			c.partial(line, "name '%s' is not bound by a paraview.simple import", f.ID)
		}
		c.nameCall(f.ID, call, targets, line)
		return
	case *pypy.Attribute:
		if base, ok := f.Value.(*pypy.Name); ok {
			c.methodCall(base.ID, f.Attr, call, targets, line)
			return
		}
		// paraview.simple.X(...) through the bound package name.
		if mod, ok := f.Value.(*pypy.Attribute); ok && mod.Attr == "simple" {
			if root, ok := mod.Value.(*pypy.Name); ok && root.ID == "paraview" && c.paraview && !c.locals["paraview"] {
				c.nameCall(f.Attr, call, targets, line)
				return
			}
		}
	}
	c.partial(line, "call is not modelled")
}

func (c *compiler) nameCall(name string, call *pypy.Call, targets []string, line int) {
	if cls := c.schema.Class(name); cls != nil && (cls.Kind == "source" || cls.Kind == "filter") {
		c.construct(name, cls, call, targets, line)
		return
	}
	if !c.literalArgs(call) {
		c.partial(line, "%s() argument is not a literal or a bound name", name)
		return
	}
	view, viewOK := -1, len(call.Args) == 0 // the view argument, if any
	if !viewOK {
		view, viewOK = c.stageArg(call.Args[0], isView)
	}
	switch {
	case name == "OpenDataFile":
		c.openDataFile(call, targets, line)
	case name == "GetActiveViewOrCreate", name == "GetActiveView" && c.activeView >= 0:
		c.bind(targets, c.ensureView(line))
	case name == "CreateView" || name == "CreateRenderView":
		c.bind(targets, c.newView(line))
	case name == "SetActiveView" && view >= 0:
		c.activeView = view
	case name == "SetActiveSource" && len(call.Args) > 0:
		var ok bool
		if c.active, ok = c.stageArg(call.Args[0], (*Stage).IsPipeline); !ok {
			c.partial(line, "SetActiveSource() argument is not a pipeline proxy")
		}
	case name == "Show":
		c.show(call, targets, line)
	case name == "ColorBy":
		c.colorBy(call, line)
	case name == "SaveScreenshot":
		c.screenshot(call, line)
	case name == "_DisableFirstRenderCameraReset":
		c.resetDisabled = true
	case isCameraOp(name) && name != "ApplyIsometricView" && viewOK:
		if view < 0 {
			view = c.ensureView(line)
		}
		st := c.plan.Stages[view]
		st.Camera = append(st.Camera, strings.Replace(name, "ResetActiveCameraToIsometricView", "ApplyIsometricView", 1))
	case name == "GetColorTransferFunction":
		c.partial(line, "transfer functions are not modelled")
		c.bindClass(targets, "PVLookupTable")
	case name == "GetOpacityTransferFunction":
		c.partial(line, "transfer functions are not modelled")
		c.bindClass(targets, "PiecewiseFunction")
	case name == "GetDisplayProperties":
		c.partial(line, "display properties objects are not modelled")
		c.bindClass(targets, DisplayClass)
	case moduleNoEffect[name]:
	default:
		// Hide, Render (the first-render camera reset), Delete,
		// GetActiveView before any view (None), unknown names, and
		// view arguments that are not views.
		c.partial(line, "call to %s() is not modelled", name)
	}
}

// construct compiles a pipeline constructor call into a stage.
func (c *compiler) construct(class string, cls *Class, call *pypy.Call, targets []string, line int) {
	kind := StageFilter
	if cls.Kind == "source" {
		kind = StageSource
	}
	st := &Stage{Kind: kind, Class: class, Line: line}
	if len(targets) > 0 {
		st.ID = targets[0]
	} else {
		st.ID = fmt.Sprintf("%s%d", strings.ToLower(class), len(c.plan.Stages)+1)
	}

	input := -1
	for i, kw := range call.KwNames {
		val := call.KwValues[i]
		sl, isStr := val.(*pypy.StrLit)
		v, lit := exprValue(val)
		_, isHelper := HelperDefaults[class][kw]
		switch {
		case kw == "Input":
			if input, lit = c.stageArg(val, (*Stage).IsPipeline); !lit {
				c.partial(line, "%s Input is not a known pipeline proxy", class)
			}
		case kw == "registrationName" && isStr:
		case isHelper && isStr:
			st.SetProp(kw, HelperV(sl.Value), line)
		case lit && kw != "registrationName":
			st.SetProp(kw, v, line)
		default:
			c.partial(line, "%s %s is not a literal", class, kw)
		}
	}
	// Positional input (Contour(reader)).
	if len(call.Args) > 0 {
		up, ok := c.stageArg(call.Args[0], (*Stage).IsPipeline)
		if !ok || len(call.Args) > 1 {
			c.partial(line, "%s positional argument is not a pipeline proxy", class)
		} else if input < 0 && kind == StageFilter {
			input = up
		}
	}
	// paraview.simple uses the active source as the implicit input.
	if input < 0 && kind == StageFilter && c.active >= 0 {
		input = c.active
	}
	if input >= 0 {
		st.Inputs = []int{input}
	}
	// The engine attaches helper proxies implicitly at construction.
	for prop, helperClass := range HelperDefaults[class] {
		if _, ok := st.Props[prop]; !ok {
			st.SetProp(prop, HelperV(helperClass), 0)
		}
	}

	idx := c.plan.Add(st)
	c.active = idx
	c.bind(targets, idx)
}

// openDataFile compiles OpenDataFile by resolving the reader class from
// the file extension, exactly as the engine does.
func (c *compiler) openDataFile(call *pypy.Call, targets []string, line int) {
	var sl *pypy.StrLit
	if len(call.Args) > 0 {
		sl, _ = call.Args[0].(*pypy.StrLit)
	}
	if sl == nil {
		c.partial(line, "OpenDataFile() file name is not a string literal")
		return
	}
	name := sl.Value
	var st *Stage
	switch strings.ToLower(filepath.Ext(name)) {
	case ".vtk":
		st = &Stage{Kind: StageSource, Class: "LegacyVTKReader", Line: line}
		st.SetProp("FileNames", ListV(StrV(name)), line)
	case ".ex2", ".e", ".exo":
		st = &Stage{Kind: StageSource, Class: "ExodusIIReader", Line: line}
		st.SetProp("FileName", StrV(name), line)
	default:
		c.diag(Diagnostic{
			Kind: DiagBadInput, Severity: SevError, Line: line,
			Message: fmt.Sprintf("OpenDataFile: unsupported file type '%s'", name),
		})
		return
	}
	if len(targets) > 0 {
		st.ID = targets[0]
	} else {
		st.ID = "reader"
	}
	idx := c.plan.Add(st)
	c.active = idx
	c.bind(targets, idx)
}

func (c *compiler) newView(line int) int {
	st := &Stage{Kind: StageView, Class: ViewClass, Line: line}
	st.ID = fmt.Sprintf("renderView%d", c.countKind(StageView)+1)
	idx := c.plan.Add(st)
	c.activeView = idx
	return idx
}

func (c *compiler) countKind(kind string) int {
	n := 0
	for _, st := range c.plan.Stages {
		if st.Kind == kind {
			n++
		}
	}
	return n
}

func (c *compiler) ensureView(line int) int {
	if c.activeView >= 0 {
		return c.activeView
	}
	return c.newView(line)
}

// viewInput resolves the view argument of Show and SaveScreenshot into
// st's inputs (the active view when None, absent or unresolved; a name
// string is a broken reference). It reports false when unresolved.
func (c *compiler) viewInput(st *Stage, args []pypy.Expr, line int) bool {
	if len(args) > 1 {
		if sl, ok := args[1].(*pypy.StrLit); ok {
			st.SetProp(PropViewName, StrV(sl.Value), line)
			return true
		}
		if idx, ok := c.stageArg(args[1], isView); ok {
			st.Inputs = append(st.Inputs, idx)
			return true
		}
	}
	st.Inputs = append(st.Inputs, c.ensureView(line))
	if len(args) < 2 {
		return true
	}
	_, none := args[1].(*pypy.NoneLit)
	return none
}

// show compiles Show(src[, view[, rep]]) into a display stage.
func (c *compiler) show(call *pypy.Call, targets []string, line int) {
	src := c.active
	if len(call.Args) > 0 {
		src, _ = c.stageArg(call.Args[0], anyStage)
		if src >= 0 && !c.plan.Stages[src].IsPipeline() {
			c.diag(Diagnostic{
				Kind: DiagTypeMismatch, Severity: SevError, Line: line,
				Class:   c.plan.Stages[src].Class,
				Message: fmt.Sprintf("Show() argument 1 must be a pipeline proxy, not '%s'", c.plan.Stages[src].Class),
			})
			return
		}
	}
	if src < 0 {
		c.partial(line, "Show() source is not a pipeline proxy")
		return
	}
	st := &Stage{Kind: StageDisplay, Class: DisplayClass, Line: line, Inputs: []int{src}}
	st.ID = c.plan.Stages[src].ID + "Display"
	if !c.viewInput(st, call.Args, line) {
		c.partial(line, "Show() view argument is not a view")
	}
	if len(call.Args) > 2 {
		if sl, ok := call.Args[2].(*pypy.StrLit); ok {
			st.SetProp(PropRepresentation, StrV(sl.Value), line)
		}
	}
	for i, kw := range call.KwNames {
		if sl, ok := call.KwValues[i].(*pypy.StrLit); ok && kw == "representationType" {
			st.SetProp(PropRepresentation, StrV(sl.Value), line)
		}
	}
	for _, other := range c.plan.Stages {
		if other.Kind == StageDisplay && fmt.Sprint(other.Inputs) == fmt.Sprint(st.Inputs) {
			// The interpreter reuses the representation; two plan
			// displays would apply in plan order.
			c.partial(line, "Show() of a source already shown in the view")
		}
	}
	c.bind(targets, c.plan.Add(st))
}

// colorBy compiles ColorBy(display, value). Calling it on a pipeline
// proxy — the unassisted-GPT-4 slice-contour failure — is diagnosed with
// the exact attribute the engine's duck-typed check would raise on.
func (c *compiler) colorBy(call *pypy.Call, line int) {
	idx := -1
	if len(call.Args) > 0 {
		idx, _ = c.stageArg(call.Args[0], anyStage)
	}
	if idx < 0 {
		c.partial(line, "ColorBy() argument 1 is not a representation")
		return
	}
	st := c.plan.Stages[idx]
	if st.Kind != StageDisplay {
		c.diag(Diagnostic{
			Kind: DiagUnknownProperty, Severity: SevError, Stage: st.ID,
			Class: st.Class, Property: "UseSeparateColorMap", Line: line,
			Message: fmt.Sprintf("ColorBy() argument 1 is the %s pipeline proxy, not its representation: '%s' object has no attribute 'UseSeparateColorMap'", st.Class, st.Class),
		})
		return
	}
	if _, ok := st.Props[PropColorArray]; ok {
		// The interpreter also initialized the first array's range.
		c.partial(line, "ColorBy() on a representation that is already coloured")
	}
	val, lit := NoneV(), true
	if len(call.Args) > 1 {
		val, lit = exprValue(call.Args[1])
	}
	switch {
	case !lit:
		c.partial(line, "ColorBy() value is not a literal")
	case val.Kind == KindNone:
		st.SetProp(PropColorArray, ListV(StrV("POINTS"), NoneV()), line)
	case val.Kind == KindStr:
		st.SetProp(PropColorArray, AssocV("POINTS", val.Str), line)
	case val.Kind == KindList && len(val.List) == 2 && val.List[0].Kind == KindStr && val.List[1].Kind == KindStr:
		st.SetProp(PropColorArray, val, line)
	default:
		c.partial(line, "ColorBy() value is not None, a name or an (association, name) pair")
	}
}

// screenshot compiles SaveScreenshot into a screenshot stage.
func (c *compiler) screenshot(call *pypy.Call, line int) {
	st := &Stage{Kind: StageScreenshot, Class: ScreenshotClass, Line: line}
	st.ID = fmt.Sprintf("screenshot%d", c.countKind(StageScreenshot)+1)
	var sl *pypy.StrLit
	if len(call.Args) > 0 {
		sl, _ = call.Args[0].(*pypy.StrLit)
	}
	if sl != nil {
		st.SetProp(PropFilename, StrV(sl.Value), line)
	}
	if !c.viewInput(st, call.Args, line) || sl == nil || len(st.Inputs) == 0 {
		c.partial(line, "SaveScreenshot() needs a file name and a view")
	}
	for i, kw := range call.KwNames {
		if v, ok := exprValue(call.KwValues[i]); ok {
			st.SetProp(kw, v, line)
		} else {
			c.partial(line, "SaveScreenshot() %s is not a literal", kw)
		}
	}
	if c.resetDisabled && len(st.Inputs) > 0 && len(c.plan.Stages[st.Inputs[0]].Camera) == 0 {
		// The plan renders with the first-render camera reset the
		// script turned off.
		c.partial(line, "screenshot without a camera reset after _DisableFirstRenderCameraReset()")
	}
	c.plan.Add(st)
	c.shots++
}

// methodCall compiles obj.Method(...) calls.
func (c *compiler) methodCall(base, name string, call *pypy.Call, targets []string, line int) {
	idx, bound := c.vars[base]
	cls := c.schema.Class(c.varClass[base])
	switch {
	case bound && c.literalArgs(call):
		c.stageMethod(c.plan.Stages[idx], idx, name, call, targets, line)
	case bound:
		c.partial(line, "%s() argument is not a literal or a bound name", name)
	case cls != nil && !cls.HasMember(name):
		c.diag(Diagnostic{
			Kind: DiagUnknownMethod, Severity: SevError,
			Class: cls.Name, Property: name, Line: line,
			Message: fmt.Sprintf("'%s' object has no attribute '%s'", cls.Name, name),
		})
	default:
		// Cameras, transfer functions, imported modules, loop variables.
		c.partial(line, "method %s() on '%s' is not modelled", name, base)
	}
}

func (c *compiler) stageMethod(st *Stage, idx int, name string, call *pypy.Call, targets []string, line int) {
	var sl *pypy.StrLit
	if len(call.Args) > 0 {
		sl, _ = call.Args[0].(*pypy.StrLit)
	}
	switch {
	case st.Kind == StageView && isCameraOp(name):
		st.Camera = append(st.Camera, name)
	case st.Kind == StageView && name == "GetActiveCamera":
		c.bindClass(targets, "Camera")
	case st.Kind == StageView && name == "Update", st.IsPipeline() && name == "UpdatePipelineInformation":
	case st.Kind == StageDisplay && name == "SetRepresentationType" && sl != nil:
		st.SetProp(PropRepresentation, StrV(sl.Value), line)
	case st.Kind == StageDisplay && name == PropRescaleTF:
		c.rescale(st, call, line)
	case st.IsPipeline() && name == "UpdatePipeline":
		c.updated = append(c.updated, idx)
	case c.schema.Class(st.Class) != nil && !c.schema.Class(st.Class).HasMember(name):
		c.diag(Diagnostic{
			Kind: DiagUnknownMethod, Severity: SevError, Stage: st.ID,
			Class: st.Class, Property: name, Line: line,
			Message: fmt.Sprintf("'%s' object has no attribute '%s'", st.Class, name),
		})
	default:
		c.partial(line, "method %s() is not modelled", name)
	}
}

// rescale compiles display.RescaleTransferFunctionToDataRange(extend,
// force), recording extend (default False): extending grows the array's
// shared range by this display's data instead of replacing it.
func (c *compiler) rescale(st *Stage, call *pypy.Call, line int) {
	extend := BoolV(false)
	if len(call.Args) > 0 {
		extend, _ = exprValue(call.Args[0])
	}
	for i, kw := range call.KwNames {
		if kw == "extend" {
			extend, _ = exprValue(call.KwValues[i])
		}
	}
	if _, colored := st.Props[PropColorArray]; !colored || extend.Kind != KindBool {
		// Before ColorBy the interpreter rescales nothing.
		c.partial(line, "RescaleTransferFunctionToDataRange() before ColorBy() or with a non-literal extend")
		return
	}
	st.SetProp(PropRescaleTF, extend, line)
}

// setAttr compiles obj.Attr = value and obj.Helper.Attr = value.
func (c *compiler) setAttr(attr *pypy.Attribute, valueExpr pypy.Expr, line int) {
	// Unwind the attribute chain down to the base name.
	var chain []string
	cur := pypy.Expr(attr)
	for {
		at, ok := cur.(*pypy.Attribute)
		if !ok {
			break
		}
		chain = append([]string{at.Attr}, chain...)
		cur = at.Value
	}
	name := "?"
	if base, ok := cur.(*pypy.Name); ok {
		name = base.ID
	}
	idx, bound := c.vars[name]
	val, isLit := exprValue(valueExpr)
	if !bound || !isLit || len(chain) > 2 {
		if cls := c.schema.Class(c.varClass[name]); !bound && cls != nil && !cls.HasMember(chain[0]) {
			// Validate-only variable: member check without plan capture.
			c.diag(Diagnostic{
				Kind: DiagUnknownProperty, Severity: SevError,
				Class: cls.Name, Property: chain[0], Line: line,
				Message: fmt.Sprintf("'%s' object has no attribute '%s'", cls.Name, chain[0]),
			})
			return
		}
		c.partial(line, "assignment to '%s.%s' is not modelled", name, strings.Join(chain, "."))
		return
	}
	st := c.plan.Stages[idx]
	cls := c.schema.Class(st.Class)
	switch {
	case st.Kind == StageDisplay && chain[0] == PropColorArray && st.Props[PropColorArray].Kind == KindList:
		c.partial(line, "'%s' is coloured again", name)
	case st.IsPipeline() && c.feedsDisplay(idx):
		// The interpreter already ran the stage for Show, and coloured
		// from that output.
		c.partial(line, "property of '%s' set after it was shown", name)
	case st.Kind == StageView && strings.HasPrefix(chain[0], "Camera") && len(st.Camera) > 0:
		// The plan applies camera ops after the view's properties.
		c.partial(line, "camera property of '%s' set after a camera operation", name)
	case len(chain) == 1 && cls != nil && !cls.HasProp(chain[0]) && cls.Methods[chain[0]]:
		c.diag(Diagnostic{
			Kind: DiagUnknownProperty, Severity: SevError, Stage: st.ID,
			Class: st.Class, Property: chain[0], Line: line,
			Message: fmt.Sprintf("'%s' object has no attribute '%s'", st.Class, chain[0]),
		})
	}

	if len(chain) == 1 {
		st.SetProp(chain[0], val, line)
		return
	}
	hv, ok := st.Props[chain[0]]
	if !ok || hv.Kind != KindHelper {
		// Assigning through a non-helper property: record the member
		// check via validation by attaching a synthetic helper only
		// when the class declares a helper there.
		helperClass, isHelper := HelperDefaults[st.Class][chain[0]]
		if !isHelper {
			c.partial(line, "assignment to '%s.%s' is not modelled", name, strings.Join(chain, "."))
			return
		}
		hv = HelperV(helperClass)
	}
	hv = hv.WithObj(chain[1], val)
	st.SetProp(chain[0], hv, 0)
	if st.PropLines == nil {
		st.PropLines = map[string]int{}
	}
	st.PropLines[chain[0]+"."+chain[1]] = line
}

// feedsDisplay reports whether stage i is shown, directly or through a
// downstream stage.
func (c *compiler) feedsDisplay(i int) bool {
	for _, st := range c.plan.Stages {
		for up := st; st.Kind == StageDisplay && len(up.Inputs) > 0; up = c.plan.Stages[up.Inputs[0]] {
			if up.Inputs[0] == i {
				return true
			}
		}
	}
	return false
}

// checkOrderEffects reports effects whose outcome depends on statement
// order, which Normalize does not keep.
func (c *compiler) checkOrderEffects() {
	for _, i := range c.updated {
		if !c.feedsDisplay(i) {
			// Normalize drops the unshown stage, and its update with it.
			c.partial(c.plan.Stages[i].Line, "UpdatePipeline() on '%s', which is never shown", c.plan.Stages[i].ID)
		}
	}
	// Displays colouring one array share its range. Unless each of them
	// extends it, the range depends on the order they rescale in.
	colored := func(st *Stage) string {
		if ca := st.Props[PropColorArray]; st.Kind == StageDisplay && len(ca.List) == 2 && ca.List[1].Kind == KindStr {
			return ca.List[1].Str
		}
		return ""
	}
	displays := map[string]int{}
	for _, st := range c.plan.Stages {
		displays[colored(st)]++
	}
	for _, st := range c.plan.Stages {
		if array := colored(st); array != "" && displays[array] > 1 && !st.Props[PropRescaleTF].Bool {
			c.partial(st.Line, "range of '%s' depends on the order of its displays", array)
		}
	}
}
