package pvsim

import (
	"fmt"
	"image"
	"math"
	"sort"
	"strings"

	"chatvis/internal/data"
	"chatvis/internal/filters"
	"chatvis/internal/obs"
	"chatvis/internal/par"
	"chatvis/internal/pypy"
	"chatvis/internal/render"
	"chatvis/internal/vmath"
)

// visibleSources lists the pipeline proxies shown in a view, in
// pipeline-creation order (deterministic, unlike map iteration).
func (e *Engine) visibleSources(view *Proxy) []*Proxy {
	var srcs []*Proxy
	for key, rep := range e.Reps {
		if key.view == view && propBool(rep, "Visibility", true) {
			srcs = append(srcs, key.src)
		}
	}
	return sortByPipelineOrder(e, srcs)
}

// sortByPipelineOrder orders proxies by creation order so concurrent
// DAG execution reports errors deterministically; proxies deleted from
// the pipeline sort last.
func sortByPipelineOrder(e *Engine, srcs []*Proxy) []*Proxy {
	order := make(map[*Proxy]int, len(e.Pipeline))
	for i, p := range e.Pipeline {
		order[p] = i
	}
	at := func(p *Proxy) int {
		if i, ok := order[p]; ok {
			return i
		}
		return len(order)
	}
	sort.Slice(srcs, func(i, j int) bool { return at(srcs[i]) < at(srcs[j]) })
	return srcs
}

// cameraFromView builds a render camera from the view proxy's properties.
func (e *Engine) cameraFromView(view *Proxy) *render.Camera {
	c := render.NewCamera()
	if v := propFloats(view, "CameraPosition"); len(v) >= 3 {
		c.Position = vmath.FromSlice(v)
	}
	if v := propFloats(view, "CameraFocalPoint"); len(v) >= 3 {
		c.FocalPoint = vmath.FromSlice(v)
	}
	if v := propFloats(view, "CameraViewUp"); len(v) >= 3 {
		c.ViewUp = vmath.FromSlice(v)
	}
	c.ViewAngle = propFloat(view, "CameraViewAngle", 30)
	c.ParallelProjection = propBool(view, "CameraParallelProjection", false)
	c.ParallelScale = propFloat(view, "CameraParallelScale", 1)
	return c
}

// cameraToView stores a render camera back into view properties.
func (e *Engine) cameraToView(c *render.Camera, view *Proxy) {
	view.Props["CameraPosition"] = listOf(c.Position.X, c.Position.Y, c.Position.Z)
	view.Props["CameraFocalPoint"] = listOf(c.FocalPoint.X, c.FocalPoint.Y, c.FocalPoint.Z)
	view.Props["CameraViewUp"] = listOf(c.ViewUp.X, c.ViewUp.Y, c.ViewUp.Z)
	view.Props["CameraParallelScale"] = pypy.Float(c.ParallelScale)
}

// viewBounds unions the bounds of everything visible in the view.
func (e *Engine) viewBounds(view *Proxy) vmath.AABB {
	b := vmath.EmptyAABB()
	for key, rep := range e.Reps {
		if key.view != view || !propBool(rep, "Visibility", true) {
			continue
		}
		ds, dsKey, err := e.keyedDataset(key.src)
		if err != nil {
			continue
		}
		// A script and the plan it lowers to reset their cameras over the
		// same datasets: each one's bounds are computed once per engine.
		bb, ok := e.bounds[dsKey]
		if !ok {
			bb = ds.Bounds()
			if dsKey != "" {
				e.bounds[dsKey] = bb
			}
		}
		b.Union(bb)
	}
	return b
}

// resetCamera implements ParaView's ResetCamera for a view.
func (e *Engine) resetCamera(view *Proxy) {
	b := e.viewBounds(view)
	if b.IsEmpty() {
		return
	}
	c := e.cameraFromView(view)
	c.ResetToBounds(b)
	e.cameraToView(c, view)
}

// lookFrom points the view's camera at the visible bounds from the given
// direction (the ResetActiveCameraTo* family and isometric view).
func (e *Engine) lookFrom(view *Proxy, dir vmath.Vec3) {
	b := e.viewBounds(view)
	if b.IsEmpty() {
		b = vmath.AABB{Min: vmath.V(-1, -1, -1), Max: vmath.V(1, 1, 1)}
	}
	c := e.cameraFromView(view)
	up := vmath.V(0, 0, 1)
	if dir.Norm().NearEq(vmath.V(0, 0, 1), 1e-9) || dir.Norm().NearEq(vmath.V(0, 0, -1), 1e-9) {
		up = vmath.V(0, 1, 0)
	}
	c.LookFrom(dir, up, b)
	e.cameraToView(c, view)
}

// updateView brings a view up to date for a render: it executes the
// pipeline of every display in the view (a Show()n then Hidden filter
// still fails a render, as in ParaView) and applies the first-render
// camera reset.
func (e *Engine) updateView(view *Proxy) error {
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
		e.cameraMoved(view)
		e.resetCamera(view)
	}
	e.renderedOnce[view] = true
	return nil
}

// cameraProps are the view properties a camera operation rewrites.
var cameraProps = []string{"CameraPosition", "CameraFocalPoint", "CameraViewUp", "CameraParallelScale"}

// cameraMoved keeps a view's camera properties as they stand before its
// first camera operation or render: a plan sets them when it builds the
// view, and applies its camera operations afterwards.
func (e *Engine) cameraMoved(view *Proxy) {
	if view.camBase != nil {
		return
	}
	view.camBase = map[string]pypy.Value{}
	for _, name := range cameraProps {
		view.camBase[name] = view.Props[name]
	}
}

// rescaleRepTF rescales the transfer function of a representation's color
// array to the current data range; with extend, as in ParaView, the
// range only grows to include it, so the order in which displays
// sharing an array rescale does not matter.
func (e *Engine) rescaleRepTF(rep *Proxy, extend bool) {
	if rep.repOf == nil {
		return
	}
	_, array := propAssoc(rep, "ColorArrayName")
	if array == "" {
		return
	}
	ds, err := e.Dataset(rep.repOf)
	if err != nil {
		return
	}
	lo, hi := data.FieldRange(ds, array)
	if r, ok := e.tfRanges[array]; extend && ok && r.initialized {
		lo, hi = math.Min(lo, r.lo), math.Max(hi, r.hi)
	}
	e.tfRanges[array] = &tfRange{lo: lo, hi: hi, initialized: true}
}

// tfRangeFor returns the transfer-function range for an array, falling
// back to the dataset's own range on first use (ParaView initializes the
// LUT from the first dataset colored by the array).
func (e *Engine) tfRangeFor(array string, ds data.Dataset) (float64, float64) {
	if r, ok := e.tfRanges[array]; ok && r.initialized {
		return r.lo, r.hi
	}
	lo, hi := data.FieldRange(ds, array)
	e.tfRanges[array] = &tfRange{lo: lo, hi: hi, initialized: true}
	return lo, hi
}

// lutFor builds a renderable lookup table for an array: explicit RGBPoints
// when the script configured them, the default cool-to-warm otherwise.
func (e *Engine) lutFor(array string, ds data.Dataset) *render.LookupTable {
	if tf, ok := e.colorTFs[array]; ok {
		pts := propFloats(tf, "RGBPoints")
		if len(pts) >= 8 {
			lut := &render.LookupTable{NaNColor: render.Color{R: 1, G: 1, B: 0}}
			for i := 0; i+3 < len(pts); i += 4 {
				lut.AddPoint(pts[i], render.Color{R: pts[i+1], G: pts[i+2], B: pts[i+3]})
			}
			return lut
		}
	}
	lo, hi := e.tfRangeFor(array, ds)
	return render.NewCoolToWarm(lo, hi)
}

// otfFor builds the volume opacity function for an array.
func (e *Engine) otfFor(array string, ds data.Dataset) *render.OpacityFunction {
	if tf, ok := e.opacityTFs[array]; ok {
		pts := propFloats(tf, "Points")
		// ParaView PiecewiseFunction points come as (x, alpha, mid, sharp).
		if len(pts) >= 8 {
			otf := &render.OpacityFunction{}
			for i := 0; i+3 < len(pts); i += 4 {
				otf.AddPoint(pts[i], pts[i+1])
			}
			return otf
		}
	}
	lo, hi := e.tfRangeFor(array, ds)
	return render.NewDefaultOpacity(lo, hi)
}

// outlineOf builds the 12-edge outline polydata of a dataset's bounds —
// ParaView's default representation for raw image data.
func outlineOf(b vmath.AABB) *data.PolyData {
	pd := data.NewPolyData()
	var ids [8]int
	for i := 0; i < 8; i++ {
		p := vmath.Vec3{
			X: pick(i&1 == 0, b.Min.X, b.Max.X),
			Y: pick(i&2 == 0, b.Min.Y, b.Max.Y),
			Z: pick(i&4 == 0, b.Min.Z, b.Max.Z),
		}
		ids[i] = pd.AddPoint(p)
	}
	edges := [12][2]int{
		{0, 1}, {2, 3}, {4, 5}, {6, 7},
		{0, 2}, {1, 3}, {4, 6}, {5, 7},
		{0, 4}, {1, 5}, {2, 6}, {3, 7},
	}
	for _, e2 := range edges {
		pd.AddLine(ids[e2[0]], ids[e2[1]])
	}
	return pd
}

func pick(cond bool, a, b float64) float64 {
	if cond {
		return a
	}
	return b
}

// surfaceKeySuffix extends a dataset's cache key into the key of the
// render surface extracted from it.
const surfaceKeySuffix = "|surface"

// surfaceOf returns the boundary surface the renderer draws for an
// unstructured grid. With a DataCache, the surface is memoized beside
// the grid's key, so each distinct grid is
// extracted once by all engines sharing the cache: a camera, colour or
// resolution edit re-renders without re-extracting. A lookup is not a
// pipeline stage: it opens no stage span and counts no execution.
func (e *Engine) surfaceOf(ug *data.UnstructuredGrid, key string) (*data.PolyData, error) {
	if e.DataCache == nil || key == "" {
		return filters.ExtractSurface(ug), nil
	}
	ds, _, err := e.DataCache.GetOrCompute(e.execCtx(), key+surfaceKeySuffix, func() (data.Dataset, error) {
		return filters.ExtractSurface(ug), nil
	})
	if err != nil {
		return nil, err
	}
	return ds.(*data.PolyData), nil
}

// Render size limits: a side of at most 8192 pixels and at most 4K UHD
// (3840x2160) pixels in total.
const (
	maxRenderSide   = 8192
	maxRenderPixels = 3840 * 2160
)

// renderSize converts a script's [width, height] (SaveScreenshot's
// ImageResolution or a view's ViewSize) to pixels; fewer than two values
// is no size, 0x0. A side that is negative, not a number or over
// maxRenderSide is refused before the conversion, which could wrap it
// into a size that silently renders at the default.
func renderSize(vals []float64) (w, h int, err error) {
	if len(vals) < 2 {
		return 0, 0, nil
	}
	fw, fh := vals[0], vals[1]
	if !(fw >= 0 && fh >= 0) {
		return 0, 0, raiseRT("render size %.10gx%.10g is negative or not a number", fw, fh)
	}
	if fw > maxRenderSide || fh > maxRenderSide {
		return 0, 0, renderLimitError(fw, fh)
	}
	return int(fw), int(fh), nil
}

// renderLimitError refuses a render size; %.10g prints 4294967296 as
// written but 1e300 in exponent form.
func renderLimitError(w, h float64) error {
	return raiseRT("render size %.10gx%.10g exceeds the limit of %d pixels a side and %d pixels in total",
		w, h, maxRenderSide, maxRenderPixels)
}

// scene is everything a render of one view reads from the engine: the
// resolved frame, the camera and background, and the visible actors in
// pipeline order. A script's SaveScreenshot records it, and ExecPlan
// renders it.
type scene struct {
	w, h   int
	camera *render.Camera
	bg     render.Color
	actors []sceneActor
}

// sceneActor is one visible display as the renderer draws it.
type sceneActor struct {
	ds  data.Dataset
	key string // the dataset's content key
	// volume marks a volume-rendered image; field is its array, or
	// the colour array of a surface ("" for a solid colour).
	volume bool
	field  string
	lut    *render.LookupTable
	otf    *render.OpacityFunction

	rep                           string
	solid                         *render.Color
	opacity, lineWidth, pointSize float64
}

// viewScene resolves what a view shows at the given resolution.
// overridePalette handles SaveScreenshot's OverrideColorPalette option
// ("WhiteBackground", "BlackBackground" or empty). Every check that can
// refuse a render runs here, before any pixel: the render size, every
// visible dataset (independent branches execute in parallel through
// requireDataset) and volume rendering of non-image data.
func (e *Engine) viewScene(view *Proxy, w, h int, overridePalette string) (*scene, error) {
	if w <= 0 || h <= 0 {
		var err error
		if w, h, err = renderSize(propFloats(view, "ViewSize")); err != nil {
			return nil, err
		}
	}
	if w <= 0 {
		w = 844
	}
	if h <= 0 {
		h = 539
	}
	// The framebuffer costs 32 bytes a pixel, and the size comes from
	// the script: refuse one that would exhaust memory. The side check
	// comes first so the product cannot overflow.
	if w > maxRenderSide || h > maxRenderSide || w*h > maxRenderPixels {
		return nil, renderLimitError(float64(w), float64(h))
	}
	srcs := e.visibleSources(view)
	if err := e.requireDataset(srcs); err != nil {
		return nil, err
	}
	sc := &scene{w: w, h: h, camera: e.cameraFromView(view), bg: render.DefaultBackground}
	if bg := propFloats(view, "Background"); len(bg) >= 3 && !propBool(view, "UseColorPaletteForBackground", true) {
		sc.bg = render.Color{R: bg[0], G: bg[1], B: bg[2]}
	}
	switch overridePalette {
	case "WhiteBackground":
		sc.bg = render.White
	case "BlackBackground":
		sc.bg = render.Black
	}
	for _, src := range srcs {
		rep := e.Reps[repKey{src: src, view: view}]
		ds, key, err := e.keyedDataset(src)
		if err != nil {
			return nil, err
		}
		a := sceneActor{ds: ds, key: key, rep: propStr(rep, "Representation")}
		_, a.field = propAssoc(rep, "ColorArrayName")
		if a.rep == "Volume" {
			im, ok := ds.(*data.ImageData)
			if !ok {
				// Volume rendering of non-image data is unsupported, as in
				// ParaView without a resampling step.
				return nil, raiseRT("volume rendering requires uniform grid data")
			}
			if a.field == "" {
				if f := im.Points.FirstScalar(); f != nil {
					a.field = f.Name
				}
			}
			a.volume = true
			a.lut, a.otf = e.lutFor(a.field, im), e.otfFor(a.field, im)
			sc.actors = append(sc.actors, a)
			continue
		}
		if dc := propFloats(rep, "DiffuseColor"); len(dc) >= 3 {
			a.solid = &render.Color{R: dc[0], G: dc[1], B: dc[2]}
		}
		a.opacity = propFloat(rep, "Opacity", 1)
		a.lineWidth = propFloat(rep, "LineWidth", 1)
		a.pointSize = propFloat(rep, "PointSize", 2)
		if a.field != "" {
			a.lut = e.lutFor(a.field, ds)
		}
		sc.actors = append(sc.actors, a)
	}
	return sc, nil
}

// renderScene rasterizes a resolved scene.
func (e *Engine) renderScene(sc *scene) (*image.RGBA, error) {
	ctx, span := obs.Start(e.execCtx(), "render.view")
	defer span.End()
	span.SetAttr("width", sc.w)
	span.SetAttr("height", sc.h)
	// Sweep observer: the renderer's geometry/raster/volume sweeps
	// report into agg, and the aggregate lands as span attributes.
	var agg par.SweepAgg
	ctx = par.WithSweepObserver(ctx, agg.Observe)
	r := render.NewRenderer()
	r.Camera = sc.camera
	r.Background = sc.bg
	// Actors are added in pipeline order: translucent displays blend in
	// the order they are drawn.
	for _, sa := range sc.actors {
		if sa.volume {
			r.AddVolume(&render.VolumeActor{
				Image: sa.ds.(*data.ImageData), Field: sa.field,
				CTF: sa.lut, OTF: sa.otf, Visible: true,
			})
			continue
		}
		var mesh *data.PolyData
		switch t := sa.ds.(type) {
		case *data.PolyData:
			mesh = t
		case *data.UnstructuredGrid:
			var err error
			if mesh, err = e.surfaceOf(t, sa.key); err != nil {
				span.SetError(err)
				return nil, err
			}
		case *data.ImageData:
			// ParaView shows raw volumes as an outline unless volume
			// rendered — the source of the paper's "blank" GPT-4 image.
			mesh = outlineOf(t.Bounds())
		default:
			continue
		}
		a := render.NewActor(mesh)
		a.Rep = render.ParseRepresentation(sa.rep)
		if sa.solid != nil {
			a.SolidColor = *sa.solid
		}
		a.Opacity, a.LineWidth, a.PointSize = sa.opacity, sa.lineWidth, sa.pointSize
		if sa.field != "" {
			a.ColorField, a.LUT = sa.field, sa.lut
		}
		r.AddActor(a)
	}
	img, err := r.RenderContext(ctx, sc.w, sc.h)
	if sum := agg.Summary(); sum.Sweeps > 0 {
		span.SetAttr("par_sweeps", sum.Sweeps)
		span.SetAttr("par_chunks", sum.Chunks)
		span.SetAttr("par_busy_ms", sum.Busy.Milliseconds())
		span.SetAttr("par_chunk_max_ms", sum.MaxChunk.Milliseconds())
		span.SetAttr("par_imbalance", sum.MaxImbalance)
	}
	if err != nil {
		span.SetError(err)
		return nil, err
	}
	return img, nil
}

// digest renders a scene as the three parts a screenshot check compares:
// the frame, the camera, and the actors. The actors are sorted, because
// a plan orders its stages canonically rather than in script order.
func (sc *scene) digest() [3]string {
	actors := make([]string, len(sc.actors))
	for i, a := range sc.actors {
		key := a.key
		if key == "" {
			// An unkeyed dataset cannot be shown to be the same one.
			key = fmt.Sprintf("%p", a.ds)
		}
		// %v prints what a pointer to a struct points at.
		actors[i] = fmt.Sprintf("%s %v %q %q %v %v %v %v %v %v", key, a.volume, a.field, a.rep,
			a.solid, a.opacity, a.lineWidth, a.pointSize, a.lut, a.otf)
	}
	sort.Strings(actors)
	// A camera reached by other operations in the same place can differ
	// in the last bits; 12 digits keep far finer than a pixel.
	c := sc.camera
	return [3]string{
		fmt.Sprintf("%dx%d %v", sc.w, sc.h, sc.bg),
		fmt.Sprintf("%.12g %.12g %.12g %.12g %.12g %.12g %.12g %.12g %.12g %.12g %v %.12g",
			c.Position.X, c.Position.Y, c.Position.Z, c.FocalPoint.X, c.FocalPoint.Y, c.FocalPoint.Z,
			c.ViewUp.X, c.ViewUp.Y, c.ViewUp.Z, c.ViewAngle, c.ParallelProjection, c.ParallelScale),
		strings.Join(actors, "\n"),
	}
}
