package pvsim

import (
	"context"
	"fmt"
	"image"
	"math"
	"path/filepath"
	"strings"
	"sync/atomic"

	"chatvis/internal/data"
	"chatvis/internal/datagen"
	"chatvis/internal/filters"
	"chatvis/internal/obs"
	"chatvis/internal/par"
	"chatvis/internal/pypy"
	"chatvis/internal/render"
	"chatvis/internal/vmath"
	"chatvis/internal/vtkio"
)

// Engine is the simulated ParaView session: all live proxies, active
// objects, the transfer-function registry and I/O roots.
type Engine struct {
	// DataDir is the root of the input file names scripts give.
	DataDir string
	// Sink receives every saved screenshot; NewEngine sets a DirSink.
	Sink ScreenshotSink

	// DataCache, when set, is the process-wide content-keyed dataset
	// cache: proxies whose content hash (class + properties + input
	// chain + source file identity) matches a cached entry reuse the
	// cached dataset instead of recomputing. Shared across engines —
	// and therefore across chatvisd jobs and repair iterations.
	// Cached datasets are immutable by contract.
	DataCache *data.Cache

	// ExecCtx carries cancellation into filter execution and rendering;
	// nil means context.Background(). pvpython.Runner threads the job
	// context here.
	ExecCtx context.Context

	// executions counts filter/reader computations actually performed
	// (cache hits do not count) — the observable the repair-iteration
	// cache tests pin.
	executions atomic.Int64

	Pipeline []*Proxy // sources and filters, in creation order
	Views    []*Proxy
	Layouts  []*Proxy
	Reps     map[repKey]*Proxy

	ActiveSource *Proxy
	ActiveView   *Proxy

	// Screenshots records the sink's reference for every screenshot the
	// run saved (ExecPlan starts each run with an empty log).
	Screenshots []string
	// Rendered maps a screenshot reference to the rendered image so
	// callers can inspect pixels without re-reading the file.
	Rendered map[string]*image.RGBA

	colorTFs   map[string]*Proxy
	opacityTFs map[string]*Proxy
	tfRanges   map[string]*tfRange

	firstRenderResetDisabled bool
	renderedOnce             map[*Proxy]bool

	// planProxies memoizes the proxies ExecPlan builds by content key, so
	// a repair iteration or edit re-executing a changed plan recomputes
	// only the stages whose key changed.
	planProxies map[string]*Proxy

	schemas map[string]*classSchema
}

// tfRange tracks the scalar range a named transfer function is mapped
// over, mirroring ParaView's per-array transfer function registry.
type tfRange struct {
	lo, hi      float64
	initialized bool
}

// repKey identifies a representation: one per (pipeline proxy, view).
type repKey struct {
	src  *Proxy
	view *Proxy
}

// NewEngine builds an engine that reads inputs under dataDir and writes
// screenshots as files under outDir.
func NewEngine(dataDir, outDir string) *Engine {
	e := &Engine{
		DataDir:      dataDir,
		Sink:         DirSink(outDir),
		Reps:         map[repKey]*Proxy{},
		Rendered:     map[string]*image.RGBA{},
		colorTFs:     map[string]*Proxy{},
		opacityTFs:   map[string]*Proxy{},
		tfRanges:     map[string]*tfRange{},
		renderedOnce: map[*Proxy]bool{},
	}
	e.registerSchemas()
	return e
}

func (e *Engine) schema(name string) *classSchema { return e.schemas[name] }

func (e *Engine) addSchema(s *classSchema) { e.schemas[s.name] = s }

// raiseRT reports a ParaView-side runtime failure into the script. Any
// error among the format args becomes the exception's wrapped cause, so
// a context cancellation inside a filter stays visible to errors.Is
// through the Python-shaped wrapper.
func raiseRT(format string, args ...interface{}) error {
	pe := &pypy.PyError{Kind: "RuntimeError", Msg: fmt.Sprintf(format, args...)}
	for _, a := range args {
		if err, ok := a.(error); ok {
			pe.Cause = err
			break
		}
	}
	return pe
}

// registerSchemas declares every proxy class the simulation supports. The
// property lists mirror the (much larger) ParaView property groups that
// the paper's five pipelines touch.
func (e *Engine) registerSchemas() {
	e.schemas = map[string]*classSchema{}

	// --- helper proxies -------------------------------------------------
	e.addSchema(&classSchema{
		name: "Plane", kind: kindHelper,
		props: map[string]PropSpec{
			"Origin": {Default: func() pypy.Value { return listOf(0, 0, 0) }},
			"Normal": {Default: func() pypy.Value { return listOf(1, 0, 0) }},
			"Offset": {Default: func() pypy.Value { return pypy.Float(0) }},
		},
	})
	e.addSchema(&classSchema{
		name: "Point Cloud", kind: kindHelper,
		props: map[string]PropSpec{
			"Center":         {Default: func() pypy.Value { return listOf(0, 0, 0) }},
			"NumberOfPoints": {Default: func() pypy.Value { return pypy.Int(100) }},
			"Radius":         {Default: func() pypy.Value { return pypy.Float(0) }},
		},
	})
	e.addSchema(&classSchema{
		name: "Camera", kind: kindHelper,
		props: map[string]PropSpec{},
		methods: map[string]methodFn{
			"SetPosition":   camSet("CameraPosition"),
			"SetFocalPoint": camSet("CameraFocalPoint"),
			"SetViewUp":     camSet("CameraViewUp"),
			"Azimuth":       camRotate("azimuth"),
			"Elevation":     camRotate("elevation"),
			"Zoom":          camRotate("zoom"),
		},
	})

	// --- readers ---------------------------------------------------------
	e.addSchema(&classSchema{
		name: "LegacyVTKReader", kind: kindSource,
		props: map[string]PropSpec{
			"FileNames":        {Default: func() pypy.Value { return &pypy.List{} }},
			"registrationName": {},
		},
		methods: pipelineMethods(),
	})
	e.addSchema(&classSchema{
		name: "ExodusIIReader", kind: kindSource,
		props: map[string]PropSpec{
			"FileName":         {Default: func() pypy.Value { return pypy.Str("") }},
			"PointVariables":   {Default: func() pypy.Value { return &pypy.List{} }},
			"ElementBlocks":    {Default: func() pypy.Value { return &pypy.List{} }},
			"registrationName": {},
		},
		methods: pipelineMethods(),
	})

	// --- filters ----------------------------------------------------------
	e.addSchema(&classSchema{
		name: "Contour", kind: kindFilter,
		props: map[string]PropSpec{
			"Input":            {},
			"ContourBy":        {Default: func() pypy.Value { return strList("POINTS", "") }},
			"Isosurfaces":      {Default: func() pypy.Value { return &pypy.List{} }},
			"ComputeNormals":   {Default: func() pypy.Value { return pypy.Int(1) }},
			"ComputeScalars":   {Default: func() pypy.Value { return pypy.Int(0) }},
			"registrationName": {},
		},
		methods: pipelineMethods(),
	})
	e.addSchema(&classSchema{
		name: "Slice", kind: kindFilter,
		props: map[string]PropSpec{
			"Input":               {},
			"SliceType":           {}, // set to a Plane helper at construction
			"SliceOffsetValues":   {Default: func() pypy.Value { return listOf(0) }},
			"Triangulatetheslice": {Default: func() pypy.Value { return pypy.Int(1) }},
			"registrationName":    {},
		},
		methods: pipelineMethods(),
	})
	e.addSchema(&classSchema{
		name: "Clip", kind: kindFilter,
		props: map[string]PropSpec{
			"Input":    {},
			"ClipType": {}, // Plane helper
			// ParaView's Clip has Invert — not InsideOut. Unassisted GPT-4
			// sets InsideOut and gets an AttributeError (paper §IV-D).
			"Invert":           {Default: func() pypy.Value { return pypy.Int(1) }},
			"Scalars":          {Default: func() pypy.Value { return strList("POINTS", "") }},
			"Value":            {Default: func() pypy.Value { return pypy.Float(0) }},
			"registrationName": {},
		},
		methods: pipelineMethods(),
	})
	e.addSchema(&classSchema{
		name: "Delaunay3D", kind: kindFilter,
		props: map[string]PropSpec{
			"Input":            {},
			"Alpha":            {Default: func() pypy.Value { return pypy.Float(0) }},
			"Tolerance":        {Default: func() pypy.Value { return pypy.Float(0.001) }},
			"Offset":           {Default: func() pypy.Value { return pypy.Float(2.5) }},
			"registrationName": {},
		},
		methods: pipelineMethods(),
	})
	e.addSchema(&classSchema{
		name: "StreamTracer", kind: kindFilter,
		props: map[string]PropSpec{
			"Input":                   {},
			"Vectors":                 {Default: func() pypy.Value { return strList("POINTS", "") }},
			"SeedType":                {},
			"IntegrationDirection":    {Default: func() pypy.Value { return pypy.Str("BOTH") }},
			"MaximumStreamlineLength": {Default: func() pypy.Value { return pypy.Float(0) }},
			"MaximumSteps":            {Default: func() pypy.Value { return pypy.Int(2000) }},
			"registrationName":        {},
		},
		methods: pipelineMethods(),
	})
	e.addSchema(&classSchema{
		name: "Tube", kind: kindFilter,
		props: map[string]PropSpec{
			"Input":            {},
			"Radius":           {Default: func() pypy.Value { return pypy.Float(0) }},
			"NumberofSides":    {Default: func() pypy.Value { return pypy.Int(6) }},
			"Capping":          {Default: func() pypy.Value { return pypy.Int(1) }},
			"registrationName": {},
		},
		methods: pipelineMethods(),
	})
	e.addSchema(&classSchema{
		name: "Glyph", kind: kindFilter,
		props: map[string]PropSpec{
			"Input":     {},
			"GlyphType": {Default: func() pypy.Value { return pypy.Str("Arrow") }},
			// Real Glyph uses OrientationArray/ScaleArray — the
			// Scalars/Vectors attributes GPT-4 invents do not exist.
			"OrientationArray":            {Default: func() pypy.Value { return strList("POINTS", "No orientation array") }},
			"ScaleArray":                  {Default: func() pypy.Value { return strList("POINTS", "No scale array") }},
			"ScaleFactor":                 {Default: func() pypy.Value { return pypy.Float(0) }},
			"GlyphMode":                   {Default: func() pypy.Value { return pypy.Str("Uniform Spatial Distribution") }},
			"MaximumNumberOfSamplePoints": {Default: func() pypy.Value { return pypy.Int(500) }},
			"registrationName":            {},
		},
		methods: pipelineMethods(),
	})
	e.addSchema(&classSchema{
		name: "ExtractSurface", kind: kindFilter,
		props: map[string]PropSpec{
			"Input":            {},
			"registrationName": {},
		},
		methods: pipelineMethods(),
	})
	e.addSchema(&classSchema{
		name: "Threshold", kind: kindFilter,
		props: map[string]PropSpec{
			"Input":            {},
			"Scalars":          {Default: func() pypy.Value { return strList("POINTS", "") }},
			"LowerThreshold":   {Default: func() pypy.Value { return pypy.Float(0) }},
			"UpperThreshold":   {Default: func() pypy.Value { return pypy.Float(0) }},
			"ThresholdMethod":  {Default: func() pypy.Value { return pypy.Str("Between") }},
			"AllScalars":       {Default: func() pypy.Value { return pypy.Int(1) }},
			"registrationName": {},
		},
		methods: pipelineMethods(),
	})
	e.addSchema(&classSchema{
		name: "Transform", kind: kindFilter,
		props: map[string]PropSpec{
			"Input":            {},
			"Transform":        {}, // nested TRS helper
			"registrationName": {},
		},
		methods: pipelineMethods(),
	})
	e.addSchema(&classSchema{
		name: "TransformHelper", kind: kindHelper,
		props: map[string]PropSpec{
			"Translate": {Default: func() pypy.Value { return listOf(0, 0, 0) }},
			"Rotate":    {Default: func() pypy.Value { return listOf(0, 0, 0) }},
			"Scale":     {Default: func() pypy.Value { return listOf(1, 1, 1) }},
		},
	})

	// --- view -------------------------------------------------------------
	e.addSchema(&classSchema{
		name: "RenderView", kind: kindView,
		props: map[string]PropSpec{
			"ViewSize": {Default: func() pypy.Value { return listOf(844, 539) }},
			"Background": {Default: func() pypy.Value {
				return listOf(render.DefaultBackground.R, render.DefaultBackground.G, render.DefaultBackground.B)
			}},
			"UseColorPaletteForBackground": {Default: func() pypy.Value { return pypy.Int(1) }},
			"CameraPosition":               {Default: func() pypy.Value { return listOf(0, 0, 6.69) }},
			"CameraFocalPoint":             {Default: func() pypy.Value { return listOf(0, 0, 0) }},
			"CameraViewUp":                 {Default: func() pypy.Value { return listOf(0, 1, 0) }},
			"CameraViewAngle":              {Default: func() pypy.Value { return pypy.Float(30) }},
			"CameraParallelProjection":     {Default: func() pypy.Value { return pypy.Int(0) }},
			"CameraParallelScale":          {Default: func() pypy.Value { return pypy.Float(1) }},
			"OrientationAxesVisibility":    {Default: func() pypy.Value { return pypy.Int(1) }},
			"AxesGrid":                     {},
			"registrationName":             {},
		},
		methods: map[string]methodFn{
			"GetActiveCamera": func(e *Engine, p *Proxy, _ []pypy.Value, _ map[string]pypy.Value) (pypy.Value, error) {
				cam := e.newProxy(e.schema("Camera"))
				cam.repView = p // camera manipulates this view
				return cam, nil
			},
			"Update": func(e *Engine, p *Proxy, _ []pypy.Value, _ map[string]pypy.Value) (pypy.Value, error) {
				return pypy.None, nil
			},
		},
	})
	for op := range cameraDirs {
		e.schema("RenderView").methods[op] = cameraMethod(op)
	}
	e.schema("RenderView").methods["ResetCamera"] = cameraMethod("ResetCamera")

	// --- layout -----------------------------------------------------------
	e.addSchema(&classSchema{
		name: "Layout", kind: kindLayout,
		props: map[string]PropSpec{
			"registrationName": {},
		},
		methods: map[string]methodFn{
			"AssignView": func(e *Engine, p *Proxy, args []pypy.Value, _ map[string]pypy.Value) (pypy.Value, error) {
				// Accepted for API compatibility; single-view layouts only.
				return pypy.None, nil
			},
			"SplitHorizontal": func(e *Engine, p *Proxy, args []pypy.Value, _ map[string]pypy.Value) (pypy.Value, error) {
				return pypy.Int(1), nil
			},
		},
	})

	// --- representation -----------------------------------------------------
	e.addSchema(&classSchema{
		name: "GeometryRepresentation", kind: kindRepresentation,
		props: map[string]PropSpec{
			"Visibility":            {Default: func() pypy.Value { return pypy.Int(1) }},
			"Representation":        {Default: func() pypy.Value { return pypy.Str("Surface") }},
			"ColorArrayName":        {Default: func() pypy.Value { return &pypy.List{Items: []pypy.Value{pypy.Str("POINTS"), pypy.None}} }},
			"DiffuseColor":          {Default: func() pypy.Value { return listOf(1, 1, 1) }},
			"AmbientColor":          {Default: func() pypy.Value { return listOf(1, 1, 1) }},
			"Opacity":               {Default: func() pypy.Value { return pypy.Float(1) }},
			"LineWidth":             {Default: func() pypy.Value { return pypy.Float(1) }},
			"PointSize":             {Default: func() pypy.Value { return pypy.Float(2) }},
			"EdgeColor":             {Default: func() pypy.Value { return listOf(0, 0, 0.5) }},
			"UseSeparateColorMap":   {Default: func() pypy.Value { return pypy.Int(0) }},
			"LookupTable":           {},
			"ScalarOpacityFunction": {},
			"SelectScaleArray":      {},
			"ScaleFactor":           {Default: func() pypy.Value { return pypy.Float(1) }},
		},
		methods: map[string]methodFn{
			"SetRepresentationType": func(e *Engine, p *Proxy, args []pypy.Value, _ map[string]pypy.Value) (pypy.Value, error) {
				if len(args) > 0 {
					if s, ok := args[0].(pypy.Str); ok {
						p.Props["Representation"] = s
					}
				}
				return pypy.None, nil
			},
			// RescaleTransferFunctionToDataRange(extend=False, force=True).
			"RescaleTransferFunctionToDataRange": func(e *Engine, p *Proxy, args []pypy.Value, kwargs map[string]pypy.Value) (pypy.Value, error) {
				extend, ok := kwargs["extend"]
				if !ok && len(args) > 0 {
					extend, ok = args[0], true
				}
				e.rescaleRepTF(p, ok && pypy.Truthy(extend))
				return pypy.None, nil
			},
		},
	})

	// --- transfer functions --------------------------------------------------
	e.addSchema(&classSchema{
		name: "PVLookupTable", kind: kindTransferFunction,
		props: map[string]PropSpec{
			"RGBPoints":              {Default: func() pypy.Value { return &pypy.List{} }},
			"ColorSpace":             {Default: func() pypy.Value { return pypy.Str("Diverging") }},
			"NanColor":               {Default: func() pypy.Value { return listOf(1, 1, 0) }},
			"ScalarRangeInitialized": {Default: func() pypy.Value { return pypy.Int(0) }},
		},
		methods: map[string]methodFn{
			"ApplyPreset": func(e *Engine, p *Proxy, args []pypy.Value, _ map[string]pypy.Value) (pypy.Value, error) {
				return pypy.None, nil
			},
			"RescaleTransferFunction": func(e *Engine, p *Proxy, args []pypy.Value, _ map[string]pypy.Value) (pypy.Value, error) {
				if len(args) >= 2 {
					lo, _ := pypy.AsFloat(args[0])
					hi, _ := pypy.AsFloat(args[1])
					p.Props["RGBPoints"] = rescaledRGBPoints(propFloats(p, "RGBPoints"), lo, hi)
				}
				return pypy.None, nil
			},
		},
	})
	e.addSchema(&classSchema{
		name: "PiecewiseFunction", kind: kindTransferFunction,
		props: map[string]PropSpec{
			"Points": {Default: func() pypy.Value { return &pypy.List{} }},
		},
		methods: map[string]methodFn{
			"RescaleTransferFunction": func(e *Engine, p *Proxy, args []pypy.Value, _ map[string]pypy.Value) (pypy.Value, error) {
				return pypy.None, nil
			},
		},
	})
}

// pipelineMethods are shared by sources and filters.
func pipelineMethods() map[string]methodFn {
	return map[string]methodFn{
		"UpdatePipeline": func(e *Engine, p *Proxy, _ []pypy.Value, _ map[string]pypy.Value) (pypy.Value, error) {
			_, err := e.Dataset(p)
			return pypy.None, err
		},
		"UpdatePipelineInformation": func(e *Engine, p *Proxy, _ []pypy.Value, _ map[string]pypy.Value) (pypy.Value, error) {
			return pypy.None, nil
		},
		"GetDataInformation": func(e *Engine, p *Proxy, _ []pypy.Value, _ map[string]pypy.Value) (pypy.Value, error) {
			ds, err := e.Dataset(p)
			if err != nil {
				return nil, err
			}
			d := pypy.NewDict()
			d.Set("NumberOfPoints", pypy.Int(int64(ds.NumPoints())))
			return d, nil
		},
		"PointData": func(e *Engine, p *Proxy, _ []pypy.Value, _ map[string]pypy.Value) (pypy.Value, error) {
			ds, err := e.Dataset(p)
			if err != nil {
				return nil, err
			}
			names := ds.PointData().Names()
			items := make([]pypy.Value, len(names))
			for i, n := range names {
				items[i] = pypy.Str(n)
			}
			return &pypy.List{Items: items}, nil
		},
	}
}

func camSet(prop string) methodFn {
	return func(e *Engine, cam *Proxy, args []pypy.Value, _ map[string]pypy.Value) (pypy.Value, error) {
		view := cam.repView
		if view == nil {
			return pypy.None, nil
		}
		vals := make([]float64, 0, 3)
		for _, a := range args {
			vals = append(vals, valueFloats(a)...)
		}
		if len(vals) >= 3 {
			view.Props[prop] = listOf(vals[0], vals[1], vals[2])
		}
		return pypy.None, nil
	}
}

func camRotate(op string) methodFn {
	return func(e *Engine, cam *Proxy, args []pypy.Value, _ map[string]pypy.Value) (pypy.Value, error) {
		view := cam.repView
		if view == nil || len(args) == 0 {
			return pypy.None, nil
		}
		amt, _ := pypy.AsFloat(args[0])
		c := e.cameraFromView(view)
		switch op {
		case "azimuth":
			c.Azimuth(amt)
		case "elevation":
			c.Elevation(amt)
		case "zoom":
			c.Zoom(amt)
		}
		e.cameraToView(c, view)
		return pypy.None, nil
	}
}

func cameraMethod(op string) methodFn {
	return func(e *Engine, view *Proxy, _ []pypy.Value, _ map[string]pypy.Value) (pypy.Value, error) {
		e.applyCameraOp(view, op)
		return pypy.None, nil
	}
}

// execCtx returns the engine's execution context.
func (e *Engine) execCtx() context.Context {
	if e.ExecCtx != nil {
		return e.ExecCtx
	}
	return context.Background()
}

// Executions returns how many proxy computations (filters and readers)
// this engine has actually executed; content-hash cache hits do not
// count.
func (e *Engine) Executions() int64 { return e.executions.Load() }

// Dataset computes (lazily) the output dataset of a pipeline proxy.
//
// Each proxy is guarded by its own mutex, so independent branches of
// the pipeline DAG may be computed concurrently (see requireDataset)
// while a shared upstream stage still executes exactly once. With a
// DataCache configured, clean recomputations — the same stage re-run in
// a later repair iteration, or by a concurrent job — are answered from
// the content-hash cache without executing the filter.
func (e *Engine) Dataset(p *Proxy) (data.Dataset, error) {
	ds, _, err := e.keyedDataset(p)
	return ds, err
}

// keyedDataset is Dataset plus the content key its dataset is cached
// under in the DataCache ("" when it is not cached).
func (e *Engine) keyedDataset(p *Proxy) (data.Dataset, string, error) {
	if p == nil {
		return nil, "", raiseRT("null pipeline proxy")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.dirty && p.dataset != nil {
		return p.dataset, p.key, nil
	}
	var key string
	if e.DataCache != nil {
		key, _ = e.contentKey(p) // "" for an unhashable proxy: computed uncached
	}
	var ds data.Dataset
	var err error
	if key != "" {
		ds, _, err = e.DataCache.GetOrCompute(e.execCtx(), key, func() (data.Dataset, error) {
			return e.computeCounted(p)
		})
	} else {
		ds, err = e.computeCounted(p)
	}
	if err != nil {
		return nil, "", err
	}
	p.dataset, p.key, p.dirty = ds, key, false
	return ds, key, nil
}

// computeCounted is the single point every actually-executed pipeline
// stage funnels through (cache hits never reach it), so each execution
// gets a span named for its proxy class. A sweep observer rides the
// span's context: every par sweep the stage runs reports into it, and
// the aggregate (chunk counts, busy time, worst imbalance) lands as
// span attributes — the scheduler's behavior is visible per stage in
// the trace.
func (e *Engine) computeCounted(p *Proxy) (data.Dataset, error) {
	e.executions.Add(1)
	ctx, span := obs.Start(e.execCtx(), "stage."+p.Class.name)
	defer span.End()
	if p.RegName != "" {
		span.SetAttr("proxy", p.RegName)
	}
	var agg par.SweepAgg
	ctx = par.WithSweepObserver(ctx, agg.Observe)
	ds, err := e.compute(ctx, p)
	if sum := agg.Summary(); sum.Sweeps > 0 {
		span.SetAttr("par_sweeps", sum.Sweeps)
		span.SetAttr("par_chunks", sum.Chunks)
		span.SetAttr("par_busy_ms", sum.Busy.Milliseconds())
		span.SetAttr("par_chunk_max_ms", sum.MaxChunk.Milliseconds())
		span.SetAttr("par_imbalance", sum.MaxImbalance)
	}
	span.SetError(err)
	return ds, err
}

// requireDataset walks the dirty pipeline DAG feeding the given
// proxies and executes independent branches concurrently on the par
// worker pool; shared upstream stages are computed once (per-proxy
// locking). The first error in srcs order is returned, so failures are
// deterministic regardless of scheduling.
func (e *Engine) requireDataset(srcs []*Proxy) error {
	if len(srcs) == 0 {
		return nil
	}
	if len(srcs) == 1 {
		_, err := e.Dataset(srcs[0])
		return err
	}
	errs, perr := par.MapN(e.execCtx(), len(srcs), func(i int) error {
		_, err := e.Dataset(srcs[i])
		return err
	})
	if perr != nil {
		return perr
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) inputDataset(p *Proxy) (data.Dataset, error) {
	if p.Input == nil {
		return nil, raiseRT("%s filter has no Input", p.Class.name)
	}
	return e.Dataset(p.Input)
}

func (e *Engine) compute(ctx context.Context, p *Proxy) (data.Dataset, error) {
	switch p.Class.name {
	case "LegacyVTKReader":
		file := readerFileName(p)
		if file == "" {
			return nil, raiseRT("LegacyVTKReader: no file name specified")
		}
		path, err := e.resolveData(p.Class.name, file)
		if err != nil {
			return nil, err
		}
		ds, err := vtkio.LoadLegacyVTK(path)
		if err != nil {
			return nil, raiseRT("LegacyVTKReader: %v", err)
		}
		return ds, nil

	case "ExodusIIReader":
		file := readerFileName(p)
		if file == "" {
			return nil, raiseRT("ExodusIIReader: no file name specified")
		}
		path, err := e.resolveData(p.Class.name, file)
		if err != nil {
			return nil, err
		}
		ug, _, err := vtkio.LoadExodus(path)
		if err != nil {
			return nil, raiseRT("ExodusIIReader: %v", err)
		}
		return ug, nil

	case "Contour":
		in, err := e.inputDataset(p)
		if err != nil {
			return nil, err
		}
		_, array := propAssoc(p, "ContourBy")
		if array == "" {
			if f := in.PointData().FirstScalar(); f != nil {
				array = f.Name
			}
		}
		values := propFloats(p, "Isosurfaces")
		if len(values) == 0 {
			lo, hi := data.FieldRange(in, array)
			values = []float64{(lo + hi) / 2}
		}
		out := data.NewPolyData()
		for _, v := range values {
			var part *data.PolyData
			var err error
			if pdIn, ok := in.(*data.PolyData); ok {
				// Contouring a surface (e.g. a slice) yields iso-lines.
				part, err = filters.ContourLines(pdIn, array, v)
			} else {
				part, err = filters.ContourContext(ctx, in, array, v)
			}
			if err != nil {
				return nil, raiseRT("Contour: %v", err)
			}
			out = mergePolyData(out, part)
		}
		if propBool(p, "ComputeNormals", true) {
			filters.ComputePointNormals(out)
		}
		return out, nil

	case "Slice":
		in, err := e.inputDataset(p)
		if err != nil {
			return nil, err
		}
		plane, err := planeFromHelper(p.Props["SliceType"])
		if err != nil {
			return nil, err
		}
		out, err := filters.SliceContext(ctx, in, plane)
		if err != nil {
			return nil, raiseRT("Slice: %v", err)
		}
		return out, nil

	case "Clip":
		in, err := e.inputDataset(p)
		if err != nil {
			return nil, err
		}
		plane, err := planeFromHelper(p.Props["ClipType"])
		if err != nil {
			return nil, err
		}
		// ParaView's Invert=1 default keeps the side *opposite* the
		// normal.
		if propBool(p, "Invert", true) {
			plane.Normal = plane.Normal.Neg()
		}
		switch t := in.(type) {
		case *data.PolyData:
			out, err := filters.ClipPolyDataContext(ctx, t, plane)
			if err != nil {
				return nil, err
			}
			return out, nil
		case *data.UnstructuredGrid:
			out, err := filters.ClipUnstructuredContext(ctx, t, plane)
			if err != nil {
				return nil, raiseRT("Clip: %v", err)
			}
			return out, nil
		case *data.ImageData:
			ug := filters.ImageToGrid(t)
			out, err := filters.ClipUnstructuredContext(ctx, ug, plane)
			if err != nil {
				return nil, raiseRT("Clip: %v", err)
			}
			return out, nil
		}
		return nil, raiseRT("Clip: unsupported input type")

	case "Delaunay3D":
		in, err := e.inputDataset(p)
		if err != nil {
			return nil, err
		}
		out, err := filters.Delaunay3D(in)
		if err != nil {
			return nil, raiseRT("Delaunay3D: %v", err)
		}
		return out, nil

	case "StreamTracer":
		in, err := e.inputDataset(p)
		if err != nil {
			return nil, err
		}
		_, array := propAssoc(p, "Vectors")
		if array == "" {
			if f := in.PointData().FirstVector(); f != nil {
				array = f.Name
			}
		}
		var sampler filters.VectorSampler
		switch t := in.(type) {
		case *data.ImageData:
			s, err := filters.NewImageSampler(t, array)
			if err != nil {
				return nil, raiseRT("StreamTracer: %v", err)
			}
			sampler = s
		case *data.UnstructuredGrid:
			s, err := filters.NewGridSampler(t, array)
			if err != nil {
				return nil, raiseRT("StreamTracer: %v", err)
			}
			sampler = s
		default:
			return nil, raiseRT("StreamTracer: unsupported input type")
		}
		seeds, err := e.seedsFromHelper(p.Props["SeedType"], in)
		if err != nil {
			return nil, err
		}
		opt := filters.StreamTracerOptions{
			Both:     strings.ToUpper(propStr(p, "IntegrationDirection")) != "FORWARD",
			MaxSteps: int(propInt(p, "MaximumSteps", 2000)),
		}
		if ml := propFloat(p, "MaximumStreamlineLength", 0); ml > 0 {
			opt.MaxLength = ml / in.Bounds().Diagonal()
		}
		return filters.StreamTracerContext(ctx, sampler, seeds, opt)

	case "Tube":
		in, err := e.inputDataset(p)
		if err != nil {
			return nil, err
		}
		pd, ok := in.(*data.PolyData)
		if !ok {
			return nil, raiseRT("Tube: input must be polygonal data with lines")
		}
		return filters.Tube(pd, filters.TubeOptions{
			Radius:   propFloat(p, "Radius", 0),
			NumSides: int(propInt(p, "NumberofSides", 6)),
			Capped:   propBool(p, "Capping", true),
		}), nil

	case "Glyph":
		in, err := e.inputDataset(p)
		if err != nil {
			return nil, err
		}
		pd, ok := in.(*data.PolyData)
		if !ok {
			// Glyphing a non-polydata source: use its points.
			pd = datasetPoints(in)
		}
		gt := filters.GlyphCone
		switch propStr(p, "GlyphType") {
		case "Arrow":
			gt = filters.GlyphArrow
		case "Sphere":
			gt = filters.GlyphSphere
		}
		_, orient := propAssoc(p, "OrientationArray")
		if orient == "No orientation array" {
			orient = ""
		}
		return filters.GlyphContext(ctx, pd, filters.GlyphOptions{
			Type:             gt,
			OrientationArray: orient,
			ScaleFactor:      propFloat(p, "ScaleFactor", 0),
			MaxGlyphs:        int(propInt(p, "MaximumNumberOfSamplePoints", 500)),
		})

	case "ExtractSurface":
		in, err := e.inputDataset(p)
		if err != nil {
			return nil, err
		}
		switch t := in.(type) {
		case *data.PolyData:
			return t, nil
		case *data.UnstructuredGrid:
			return filters.ExtractSurface(t), nil
		}
		return nil, raiseRT("ExtractSurface: unsupported input type")

	case "Threshold":
		in, err := e.inputDataset(p)
		if err != nil {
			return nil, err
		}
		_, array := propAssoc(p, "Scalars")
		if array == "" {
			if f := in.PointData().FirstScalar(); f != nil {
				array = f.Name
			}
		}
		method := filters.ThresholdAllPoints
		if !propBool(p, "AllScalars", true) {
			method = filters.ThresholdAnyPoint
		}
		out, err := filters.Threshold(in,
			array,
			propFloat(p, "LowerThreshold", 0),
			propFloat(p, "UpperThreshold", 0),
			method)
		if err != nil {
			return nil, raiseRT("Threshold: %v", err)
		}
		return out, nil

	case "Transform":
		in, err := e.inputDataset(p)
		if err != nil {
			return nil, err
		}
		translate, rotate := vmath.V(0, 0, 0), vmath.V(0, 0, 0)
		scale := vmath.V(1, 1, 1)
		if hp, ok := p.Props["Transform"].(*Proxy); ok {
			translate = vmath.FromSlice(propFloats(hp, "Translate"))
			rotate = vmath.FromSlice(propFloats(hp, "Rotate"))
			if s := propFloats(hp, "Scale"); len(s) >= 3 {
				scale = vmath.FromSlice(s)
			}
		}
		m := filters.TransformFromTRS(translate, rotate, scale)
		switch t := in.(type) {
		case *data.PolyData:
			return filters.TransformPolyData(t, m), nil
		case *data.UnstructuredGrid:
			return filters.TransformGrid(t, m), nil
		}
		return nil, raiseRT("Transform: unsupported input type")
	}
	return nil, raiseRT("cannot execute proxy of class %s", p.Class.name)
}

// resolveData confines a reader's file name to DataDir.
func (e *Engine) resolveData(class, name string) (string, error) {
	rel, err := localName(class, "data", name)
	if err != nil {
		return "", err
	}
	return filepath.Join(e.DataDir, rel), nil
}

// planeFromHelper converts a Plane helper proxy to a geometric plane.
func planeFromHelper(v pypy.Value) (vmath.Plane, error) {
	p, ok := v.(*Proxy)
	if !ok || p.Class.name != "Plane" {
		return vmath.Plane{}, raiseRT("expected a 'Plane' helper proxy")
	}
	origin := vmath.FromSlice(propFloats(p, "Origin"))
	normal := vmath.FromSlice(propFloats(p, "Normal"))
	if normal.Len() == 0 {
		normal = vmath.V(1, 0, 0)
	}
	return vmath.NewPlane(origin, normal), nil
}

// seedsFromHelper converts a Point Cloud helper to seed positions; nil or
// unset helpers fall back to ParaView's default point cloud over the
// dataset bounds.
func (e *Engine) seedsFromHelper(v pypy.Value, ds data.Dataset) ([]vmath.Vec3, error) {
	n := 100
	bounds := ds.Bounds()
	center := bounds.Center()
	radius := bounds.Diagonal() * 0.1
	if p, ok := v.(*Proxy); ok && p.Class.name == "Point Cloud" {
		n = int(propInt(p, "NumberOfPoints", 100))
		if c := propFloats(p, "Center"); len(c) >= 3 {
			center = vmath.FromSlice(c)
		}
		if r := propFloat(p, "Radius", 0); r > 0 {
			radius = r
		}
	}
	// DefaultPointCloudSeeds uses radius = diagonal/10; build a box whose
	// diagonal is exactly 10*radius so the configured radius holds.
	half := radius * 10 / (2 * math.Sqrt(3))
	fake := vmath.AABB{
		Min: center.Sub(vmath.V(half, half, half)),
		Max: center.Add(vmath.V(half, half, half)),
	}
	return filters.DefaultPointCloudSeeds(fake, n), nil
}

// mergePolyData appends b's geometry to a (used for multi-value contours).
func mergePolyData(a, b *data.PolyData) *data.PolyData {
	if a.NumPoints() == 0 {
		return b
	}
	base := len(a.Pts)
	a.Pts = append(a.Pts, b.Pts...)
	shift := func(conn [][]int) [][]int {
		out := make([][]int, len(conn))
		for i, c := range conn {
			ids := make([]int, len(c))
			for j, id := range c {
				ids[j] = id + base
			}
			out[i] = ids
		}
		return out
	}
	a.Verts = append(a.Verts, shift(b.Verts)...)
	a.Lines = append(a.Lines, shift(b.Lines)...)
	a.Polys = append(a.Polys, shift(b.Polys)...)
	for i := 0; i < a.Points.Len(); i++ {
		f := a.Points.At(i)
		if g := b.Points.Get(f.Name); g != nil && g.NumComponents == f.NumComponents {
			f.Data = append(f.Data, g.Data...)
		} else {
			f.Data = append(f.Data, make([]float64, f.NumComponents*b.NumPoints())...)
		}
	}
	return a
}

// datasetPoints views any dataset as a point cloud PolyData.
func datasetPoints(ds data.Dataset) *data.PolyData {
	pd := data.NewPolyData()
	for i := 0; i < ds.NumPoints(); i++ {
		pd.AddPoint(ds.Point(i))
		pd.AddVert(i)
	}
	pd.Points = ds.PointData().Clone()
	return pd
}

func rescaledRGBPoints(pts []float64, lo, hi float64) pypy.Value {
	if len(pts) < 8 || hi <= lo {
		return listOf(pts...)
	}
	oldLo, oldHi := pts[0], pts[len(pts)-4]
	span := oldHi - oldLo
	if span == 0 {
		span = 1
	}
	out := append([]float64{}, pts...)
	for i := 0; i+3 < len(out); i += 4 {
		t := (out[i] - oldLo) / span
		out[i] = lo + t*(hi-lo)
	}
	return listOf(out...)
}

// DiskFlowFileHelper regenerates the disk dataset (exposed for datagen
// CLI reuse and tests).
func DiskFlowFileHelper() *data.UnstructuredGrid { return datagen.DiskFlow(10, 48, 10) }
