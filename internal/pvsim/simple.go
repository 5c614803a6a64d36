package pvsim

import (
	"fmt"
	"path/filepath"
	"strings"

	"chatvis/internal/obs"
	"chatvis/internal/plan"
	"chatvis/internal/pypy"
	"chatvis/internal/render"
)

// BuildSimpleModule assembles the paraview.simple module namespace bound
// to this engine. The function and constructor set mirrors the slice of
// paraview.simple that the paper's five pipelines (and the hallucinating
// baselines) touch.
func (e *Engine) BuildSimpleModule() *pypy.ModuleVal {
	mod := &pypy.ModuleVal{Name: "paraview.simple", Attrs: map[string]pypy.Value{}}
	nf := func(name string, fn func(args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error)) {
		mod.Attrs[name] = &pypy.NativeFunc{Name: name, Fn: func(_ *pypy.Interp, args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
			return fn(args, kwargs)
		}}
	}

	// Pipeline constructors.
	for _, name := range []string{
		"LegacyVTKReader", "ExodusIIReader", "Contour", "Slice", "Clip",
		"Delaunay3D", "StreamTracer", "Tube", "Glyph", "ExtractSurface",
		"Threshold", "Transform",
	} {
		className := name
		nf(className, func(args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
			return e.construct(className, args, kwargs)
		})
	}
	nf("OpenDataFile", func(args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
		if len(args) == 0 {
			return nil, &pypy.PyError{Kind: "TypeError", Msg: "OpenDataFile() missing file name"}
		}
		s, ok := args[0].(pypy.Str)
		if !ok {
			return nil, &pypy.PyError{Kind: "TypeError", Msg: "OpenDataFile() argument must be str"}
		}
		name := string(s)
		switch strings.ToLower(filepath.Ext(name)) {
		case ".vtk":
			return e.construct("LegacyVTKReader", nil, map[string]pypy.Value{
				"FileNames": &pypy.List{Items: []pypy.Value{pypy.Str(name)}},
			})
		case ".ex2", ".e", ".exo":
			return e.construct("ExodusIIReader", nil, map[string]pypy.Value{
				"FileName": pypy.Str(name),
			})
		}
		return nil, raiseRT("OpenDataFile: unsupported file type '%s'", name)
	})

	// Views and layouts.
	nf("CreateView", func(args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
		return e.createView()
	})
	nf("CreateRenderView", func(args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
		return e.createView()
	})
	nf("GetActiveView", func(args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
		if e.ActiveView == nil {
			return pypy.None, nil
		}
		return e.ActiveView, nil
	})
	nf("GetActiveViewOrCreate", func(args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
		if e.ActiveView != nil {
			return e.ActiveView, nil
		}
		return e.createView()
	})
	nf("SetActiveView", func(args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
		if len(args) > 0 {
			if v, ok := args[0].(*Proxy); ok && v.Class.kind == kindView {
				e.ActiveView = v
			}
		}
		return pypy.None, nil
	})
	nf("CreateLayout", func(args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
		l := e.newProxy(e.schema("Layout"))
		if n, ok := kwargs["name"]; ok {
			if s, ok := n.(pypy.Str); ok {
				l.RegName = string(s)
			}
		}
		e.Layouts = append(e.Layouts, l)
		return l, nil
	})
	nf("GetLayout", func(args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
		if len(e.Layouts) == 0 {
			l := e.newProxy(e.schema("Layout"))
			e.Layouts = append(e.Layouts, l)
		}
		return e.Layouts[0], nil
	})

	// Display control.
	nf("Show", func(args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
		return e.show(args, kwargs)
	})
	nf("Hide", func(args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
		src, view, err := e.proxyAndView(args)
		if err != nil {
			return nil, err
		}
		if rep, ok := e.Reps[repKey{src, view}]; ok {
			rep.Props["Visibility"] = pypy.Int(0)
		}
		return pypy.None, nil
	})
	nf("Render", func(args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
		view, err := e.viewArg(args)
		if err != nil {
			return nil, err
		}
		return pypy.None, e.renderPass(view)
	})
	nf("GetDisplayProperties", func(args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
		src, view, err := e.proxyAndView(args)
		if err != nil {
			return nil, err
		}
		if rep, ok := e.Reps[repKey{src, view}]; ok {
			return rep, nil
		}
		return nil, raiseRT("proxy is not shown in the view")
	})
	nf("ColorBy", func(args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
		return e.colorBy(args)
	})
	nf("GetColorTransferFunction", func(args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
		name, err := strArg(args, 0, "GetColorTransferFunction")
		if err != nil {
			return nil, err
		}
		if tf, ok := e.colorTFs[name]; ok {
			return tf, nil
		}
		tf := e.newProxy(e.schema("PVLookupTable"))
		tf.RegName = name
		e.colorTFs[name] = tf
		return tf, nil
	})
	nf("GetOpacityTransferFunction", func(args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
		name, err := strArg(args, 0, "GetOpacityTransferFunction")
		if err != nil {
			return nil, err
		}
		if tf, ok := e.opacityTFs[name]; ok {
			return tf, nil
		}
		tf := e.newProxy(e.schema("PiecewiseFunction"))
		tf.RegName = name
		e.opacityTFs[name] = tf
		return tf, nil
	})
	nf("SaveScreenshot", func(args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
		return e.saveScreenshot(args, kwargs)
	})

	// Active-object helpers.
	nf("GetActiveSource", func(args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
		if e.ActiveSource == nil {
			return pypy.None, nil
		}
		return e.ActiveSource, nil
	})
	nf("SetActiveSource", func(args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
		if len(args) > 0 {
			if p, ok := args[0].(*Proxy); ok {
				e.ActiveSource = p
			}
		}
		return pypy.None, nil
	})
	nf("Delete", func(args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
		if len(args) > 0 {
			if p, ok := args[0].(*Proxy); ok {
				for i, q := range e.Pipeline {
					if q == p {
						e.Pipeline = append(e.Pipeline[:i], e.Pipeline[i+1:]...)
						break
					}
				}
				if e.ActiveSource == p {
					e.ActiveSource = nil
				}
			}
		}
		return pypy.None, nil
	})

	// Module-level camera operations act on the given or active view.
	cameraFunc := func(op string) {
		nf(op, func(args []pypy.Value, _ map[string]pypy.Value) (pypy.Value, error) {
			view, err := e.viewArg(args)
			if err != nil {
				return nil, err
			}
			e.applyCameraOp(view, op)
			return pypy.None, nil
		})
	}
	cameraFunc("ResetCamera")
	for op := range cameraDirs {
		cameraFunc(strings.Replace(op, "ApplyIsometricView", "ResetActiveCameraToIsometricView", 1))
	}

	// Misc no-ops present in real scripts.
	nf("Interact", func(args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
		return pypy.None, nil
	})
	nf("UpdateScalarBars", func(args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
		return pypy.None, nil
	})
	nf("HideScalarBarIfNotNeeded", func(args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
		return pypy.None, nil
	})
	nf("GetParaViewVersion", func(args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
		return pypy.Str("5.12"), nil
	})
	nf("_DisableFirstRenderCameraReset", func(args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
		e.firstRenderResetDisabled = true
		return pypy.None, nil
	})
	return mod
}

func strArg(args []pypy.Value, i int, fn string) (string, error) {
	if i >= len(args) {
		return "", &pypy.PyError{Kind: "TypeError", Msg: fmt.Sprintf("%s() missing required argument", fn)}
	}
	s, ok := args[i].(pypy.Str)
	if !ok {
		return "", &pypy.PyError{Kind: "TypeError", Msg: fmt.Sprintf("%s() argument must be str, not %s", fn, args[i].Type())}
	}
	return string(s), nil
}

// construct builds a pipeline proxy, applying constructor kwargs as
// property assignments exactly like paraview.simple constructors.
func (e *Engine) construct(className string, args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
	schema := e.schema(className)
	if schema == nil {
		return nil, &pypy.PyError{Kind: "NameError", Msg: fmt.Sprintf("name '%s' is not defined", className)}
	}
	p := e.newPipelineProxy(schema)
	for name, v := range kwargs {
		switch name {
		case "registrationName":
			if s, ok := v.(pypy.Str); ok {
				p.RegName = string(s)
			}
			continue
		case "Input":
			in, ok := v.(*Proxy)
			if !ok {
				return nil, &pypy.PyError{Kind: "TypeError",
					Msg: fmt.Sprintf("Input property must be a pipeline proxy, not %s", v.Type())}
			}
			p.Input = in
			continue
		}
		if _, isHelper := plan.HelperDefaults[className][name]; isHelper {
			// Accept a helper name string ('Plane', 'Point Cloud').
			if s, ok := v.(pypy.Str); ok {
				hs := e.schema(string(s))
				if hs == nil || hs.kind != kindHelper {
					return nil, raiseRT("unknown %s '%s'", name, string(s))
				}
				p.Props[name] = e.newProxy(hs)
				continue
			}
			if hp, ok := v.(*Proxy); ok {
				p.Props[name] = hp
				continue
			}
		}
		if err := p.SetAttr(name, v); err != nil {
			return nil, err
		}
	}
	// Positional Input (rare but legal: Contour(reader)).
	if p.Input == nil && len(args) > 0 {
		if in, ok := args[0].(*Proxy); ok && schema.kind == kindFilter {
			p.Input = in
		}
	}
	if schema.kind == kindFilter && p.Input == nil && e.ActiveSource != nil {
		// paraview.simple uses the active source as implicit input.
		p.Input = e.ActiveSource
	}
	e.Pipeline = append(e.Pipeline, p)
	e.ActiveSource = p
	return p, nil
}

func (e *Engine) createView() (pypy.Value, error) {
	v := e.newProxy(e.schema("RenderView"))
	e.Views = append(e.Views, v)
	e.ActiveView = v
	return v, nil
}

// viewArg resolves an optional view argument (default: active view,
// creating one as paraview.simple does).
func (e *Engine) viewArg(args []pypy.Value) (*Proxy, error) {
	if len(args) > 0 {
		if _, isNone := args[0].(pypy.NoneValue); !isNone {
			v, ok := args[0].(*Proxy)
			if !ok || v.Class.kind != kindView {
				return nil, &pypy.PyError{Kind: "TypeError",
					Msg: fmt.Sprintf("argument must be a render view proxy, not %s", args[0].Type())}
			}
			return v, nil
		}
	}
	if e.ActiveView == nil {
		v, _ := e.createView()
		return v.(*Proxy), nil
	}
	return e.ActiveView, nil
}

// proxyAndView resolves (pipelineProxy, view) argument pairs.
func (e *Engine) proxyAndView(args []pypy.Value) (*Proxy, *Proxy, error) {
	var src *Proxy
	if len(args) > 0 {
		p, ok := args[0].(*Proxy)
		if !ok {
			return nil, nil, &pypy.PyError{Kind: "TypeError",
				Msg: fmt.Sprintf("argument 1 must be a pipeline proxy, not %s", args[0].Type())}
		}
		src = p
	} else {
		src = e.ActiveSource
	}
	if src == nil {
		return nil, nil, raiseRT("no active source")
	}
	var rest []pypy.Value
	if len(args) > 1 {
		rest = args[1:]
	}
	view, err := e.viewArg(rest)
	if err != nil {
		return nil, nil, err
	}
	return src, view, nil
}

// show implements simple.Show: create (or fetch) the representation of a
// proxy in a view.
func (e *Engine) show(args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
	src, view, err := e.proxyAndView(args)
	if err != nil {
		return nil, err
	}
	if src.Class.kind != kindSource && src.Class.kind != kindFilter {
		return nil, &pypy.PyError{Kind: "TypeError",
			Msg: fmt.Sprintf("Show() argument 1 must be a pipeline proxy, not '%s'", src.Class.name)}
	}
	rep, err := e.showIn(src, view)
	if err != nil {
		return nil, err
	}
	if rt, ok := kwargs["representationType"]; ok {
		if s, ok := rt.(pypy.Str); ok {
			rep.Props["Representation"] = s
		}
	}
	if len(args) > 2 {
		if s, ok := args[2].(pypy.Str); ok {
			rep.Props["Representation"] = s
		}
	}
	return rep, nil
}

// showIn makes src visible in view through its (possibly new)
// representation. It executes the pipeline first: Show fails in real
// ParaView when the filter cannot run.
func (e *Engine) showIn(src, view *Proxy) (*Proxy, error) {
	if _, err := e.Dataset(src); err != nil {
		return nil, err
	}
	key := repKey{src, view}
	rep, ok := e.Reps[key]
	if !ok {
		rep = e.newProxy(e.schema("GeometryRepresentation"))
		rep.repOf = src
		rep.repView = view
		e.Reps[key] = rep
	}
	rep.Props["Visibility"] = pypy.Int(1)
	return rep, nil
}

// colorBy implements simple.ColorBy with ParaView's duck-typed check: the
// first argument must behave like a representation (expose
// UseSeparateColorMap). Passing a pipeline proxy — as unassisted GPT-4
// does with ColorBy(contour, None) — raises the same AttributeError the
// paper reports.
func (e *Engine) colorBy(args []pypy.Value) (pypy.Value, error) {
	if len(args) == 0 {
		return nil, &pypy.PyError{Kind: "TypeError", Msg: "ColorBy() missing required argument: 'rep'"}
	}
	rep, ok := args[0].(*Proxy)
	if !ok {
		return nil, &pypy.PyError{Kind: "TypeError",
			Msg: fmt.Sprintf("ColorBy() argument 1 must be a representation, not %s", args[0].Type())}
	}
	if _, err := rep.GetAttr("UseSeparateColorMap"); err != nil {
		return nil, err
	}
	var value pypy.Value = pypy.None
	if len(args) > 1 {
		value = args[1]
	}
	if _, isNone := value.(pypy.NoneValue); isNone {
		rep.Props["ColorArrayName"] = &pypy.List{Items: []pypy.Value{pypy.Str("POINTS"), pypy.None}}
		return pypy.None, nil
	}
	assoc, array := valueAssoc(value)
	if array == "" {
		return nil, &pypy.PyError{Kind: "ValueError",
			Msg: "ColorBy() value must be an ('ASSOCIATION', 'arrayname') pair or None"}
	}
	rep.Props["ColorArrayName"] = &pypy.List{Items: []pypy.Value{pypy.Str(assoc), pypy.Str(array)}}
	// Initialize the array's transfer function range, as ParaView does.
	if rep.repOf != nil {
		if ds, err := e.Dataset(rep.repOf); err == nil {
			e.tfRangeFor(array, ds)
		}
	}
	return pypy.None, nil
}

// renderPass executes pipelines of everything visible (errors surface to
// the script like a failed Render) and applies the first-render camera
// reset.
func (e *Engine) renderPass(view *Proxy) error {
	// Execute the dirty DAG of everything shown in the view; independent
	// branches run concurrently. Hidden representations still execute
	// (as before): a Show()n-then-Hidden filter keeps failing a Render
	// the way real ParaView surfaces execution errors.
	var srcs []*Proxy
	for key := range e.Reps {
		if key.view == view {
			srcs = append(srcs, key.src)
		}
	}
	if err := e.requireDataset(sortByPipelineOrder(e, srcs)); err != nil {
		return err
	}
	if !e.firstRenderResetDisabled && !e.renderedOnce[view] {
		e.resetCamera(view)
	}
	if e.renderedOnce == nil {
		e.renderedOnce = map[*Proxy]bool{}
	}
	e.renderedOnce[view] = true
	return nil
}

// saveScreenshot implements simple.SaveScreenshot.
func (e *Engine) saveScreenshot(args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
	if len(args) == 0 {
		return nil, &pypy.PyError{Kind: "TypeError", Msg: "SaveScreenshot() missing required argument: 'filename'"}
	}
	filename, err := strArg(args, 0, "SaveScreenshot")
	if err != nil {
		return nil, err
	}
	var rest []pypy.Value
	if len(args) > 1 {
		rest = args[1:]
	}
	view, err := e.viewArg(rest)
	if err != nil {
		return nil, err
	}
	w, h := 0, 0
	if res, ok := kwargs["ImageResolution"]; ok {
		vals := valueFloats(res)
		if len(vals) >= 2 {
			w, h = int(vals[0]), int(vals[1])
		}
	}
	palette := ""
	if p, ok := kwargs["OverrideColorPalette"]; ok {
		if s, ok := p.(pypy.Str); ok {
			palette = string(s)
		}
	}
	if err := e.writeScreenshot(view, filename, w, h, palette); err != nil {
		return nil, err
	}
	return pypy.Bool(true), nil
}

// writeScreenshot renders a view (a render pass first, as
// SaveScreenshot does), encodes it as PNG and hands it to the sink.
func (e *Engine) writeScreenshot(view *Proxy, filename string, w, h int, palette string) error {
	name, err := localName("SaveScreenshot", "output", filename)
	if err != nil {
		return err
	}
	if err := e.renderPass(view); err != nil {
		return err
	}
	img, err := e.RenderViewImage(view, w, h, palette)
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
		ref, err = e.Sink.PutScreenshot(name, png)
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
