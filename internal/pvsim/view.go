package pvsim

import (
	"image"
	"math"
	"sort"

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
		if ds, err := e.Dataset(key.src); err == nil {
			b.Union(ds.Bounds())
		}
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
// unstructured grid. When the grid is cached under key, the surface is
// memoized in the DataCache beside it, so each distinct grid is
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

// RenderViewImage renders a view at the given resolution.
// overridePalette handles SaveScreenshot's OverrideColorPalette option
// ("WhiteBackground", "BlackBackground" or empty).
//
// The dirty upstream DAG is executed first, with independent branches
// in parallel (requireDataset); the serial actor-assembly loop below
// then finds every dataset already computed.
func (e *Engine) RenderViewImage(view *Proxy, w, h int, overridePalette string) (*image.RGBA, error) {
	ctx, span := obs.Start(e.execCtx(), "render.view")
	defer span.End()
	span.SetAttr("width", w)
	span.SetAttr("height", h)
	// Sweep observer: the renderer's geometry/raster/volume sweeps
	// report into agg, and the aggregate lands as span attributes.
	var agg par.SweepAgg
	ctx = par.WithSweepObserver(ctx, agg.Observe)
	srcs := e.visibleSources(view)
	if err := e.requireDataset(srcs); err != nil {
		span.SetError(err)
		return nil, err
	}
	r := render.NewRenderer()
	r.Camera = e.cameraFromView(view)
	if bg := propFloats(view, "Background"); len(bg) >= 3 && !propBool(view, "UseColorPaletteForBackground", true) {
		r.Background = render.Color{R: bg[0], G: bg[1], B: bg[2]}
	}
	switch overridePalette {
	case "WhiteBackground":
		r.Background = render.White
	case "BlackBackground":
		r.Background = render.Black
	}
	// Actors are added in pipeline order: translucent displays blend in
	// the order they are drawn.
	for _, src := range srcs {
		rep := e.Reps[repKey{src: src, view: view}]
		ds, dsKey, err := e.keyedDataset(src)
		if err != nil {
			return nil, err
		}
		repType := propStr(rep, "Representation")
		_, colorArray := propAssoc(rep, "ColorArrayName")

		if repType == "Volume" {
			im, ok := ds.(*data.ImageData)
			if !ok {
				// Volume rendering of non-image data is unsupported, as in
				// ParaView without a resampling step.
				return nil, raiseRT("volume rendering requires uniform grid data")
			}
			field := colorArray
			if field == "" {
				if f := im.Points.FirstScalar(); f != nil {
					field = f.Name
				}
			}
			va := &render.VolumeActor{
				Image: im, Field: field,
				CTF: e.lutFor(field, im), OTF: e.otfFor(field, im),
				Visible: true,
			}
			r.AddVolume(va)
			continue
		}

		var mesh *data.PolyData
		switch t := ds.(type) {
		case *data.PolyData:
			mesh = t
		case *data.UnstructuredGrid:
			if mesh, err = e.surfaceOf(t, dsKey); err != nil {
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
		a.Rep = render.ParseRepresentation(repType)
		if dc := propFloats(rep, "DiffuseColor"); len(dc) >= 3 {
			a.SolidColor = render.Color{R: dc[0], G: dc[1], B: dc[2]}
		}
		a.Opacity = propFloat(rep, "Opacity", 1)
		a.LineWidth = propFloat(rep, "LineWidth", 1)
		a.PointSize = propFloat(rep, "PointSize", 2)
		if colorArray != "" {
			a.ColorField = colorArray
			a.LUT = e.lutFor(colorArray, ds)
		}
		r.AddActor(a)
	}
	if w <= 0 || h <= 0 {
		size := propFloats(view, "ViewSize")
		if len(size) >= 2 {
			w, h = int(size[0]), int(size[1])
		}
	}
	if w <= 0 {
		w = 844
	}
	if h <= 0 {
		h = 539
	}
	fb, err := r.RenderFBContext(ctx, w, h)
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
	return fb.Image(), nil
}
