package render

import (
	"context"
	"image"
	"math"

	"chatvis/internal/data"
	"chatvis/internal/par"
	"chatvis/internal/vmath"
)

// Representation selects how geometry is drawn, mirroring ParaView's
// representation property.
type Representation int

// Geometry representations.
const (
	RepSurface Representation = iota
	RepWireframe
	RepPoints
	RepSurfaceWithEdges
)

// String returns the ParaView name of the representation.
func (r Representation) String() string {
	switch r {
	case RepSurface:
		return "Surface"
	case RepWireframe:
		return "Wireframe"
	case RepPoints:
		return "Points"
	case RepSurfaceWithEdges:
		return "Surface With Edges"
	}
	return "Unknown"
}

// ParseRepresentation maps a ParaView representation name to the enum; it
// falls back to Surface for unknown names (as the GUI does).
func ParseRepresentation(s string) Representation {
	switch s {
	case "Wireframe":
		return RepWireframe
	case "Points":
		return RepPoints
	case "Surface With Edges":
		return RepSurfaceWithEdges
	default:
		return RepSurface
	}
}

// Actor is one piece of renderable geometry with its display properties.
type Actor struct {
	Mesh    *data.PolyData
	Rep     Representation
	Visible bool
	// SolidColor is used when ColorField is empty.
	SolidColor Color
	// ColorField selects a point array for scalar coloring through LUT.
	ColorField string
	LUT        *LookupTable
	Opacity    float64
	LineWidth  float64
	PointSize  float64
	// EdgeColor is used by SurfaceWithEdges.
	EdgeColor Color
}

// NewActor returns an actor with ParaView-like display defaults.
func NewActor(mesh *data.PolyData) *Actor {
	return &Actor{
		Mesh:       mesh,
		Rep:        RepSurface,
		Visible:    true,
		SolidColor: DefaultSurface,
		Opacity:    1,
		LineWidth:  1,
		PointSize:  2,
		EdgeColor:  Black,
	}
}

// VolumeActor renders an ImageData scalar field by ray casting.
type VolumeActor struct {
	Image   *data.ImageData
	Field   string
	CTF     *LookupTable
	OTF     *OpacityFunction
	Visible bool
	// SampleDistance is the ray-march step as a fraction of the volume
	// diagonal (default 1/300).
	SampleDistance float64
}

// NewVolumeActor builds a volume actor with default transfer functions
// spanning the field's data range (what ParaView does when a volume
// representation is first shown).
func NewVolumeActor(im *data.ImageData, field string) *VolumeActor {
	lo, hi := data.FieldRange(im, field)
	return &VolumeActor{
		Image:   im,
		Field:   field,
		CTF:     NewCoolToWarm(lo, hi),
		OTF:     NewDefaultOpacity(lo, hi),
		Visible: true,
	}
}

// Renderer is a scene: actors, volumes, a camera and a background.
//
// RenderFB executes in two phases: a geometry phase that transforms,
// shades and clips every visible actor into an ordered list of raster
// commands (parallel over vertices and triangles, deterministic command
// order), and a rasterization phase that replays the command list over
// disjoint framebuffer row bands in parallel. Each pixel is owned by
// exactly one band and commands replay in emission order, so the frame
// is byte-identical for any worker count.
type Renderer struct {
	Camera     *Camera
	Background Color
	Actors     []*Actor
	Volumes    []*VolumeActor
}

// NewRenderer returns a renderer with the default camera and ParaView's
// default background.
func NewRenderer() *Renderer {
	return &Renderer{Camera: NewCamera(), Background: DefaultBackground}
}

// AddActor appends geometry to the scene and returns its actor.
func (r *Renderer) AddActor(a *Actor) *Actor {
	r.Actors = append(r.Actors, a)
	return a
}

// AddVolume appends a volume to the scene.
func (r *Renderer) AddVolume(v *VolumeActor) *VolumeActor {
	r.Volumes = append(r.Volumes, v)
	return v
}

// VisibleBounds returns the union of the bounds of all visible props.
// Degenerate (empty or non-finite) prop bounds are skipped so an actor
// holding no geometry can never poison the camera with NaNs.
func (r *Renderer) VisibleBounds() vmath.AABB {
	b := vmath.EmptyAABB()
	for _, a := range r.Actors {
		if a.Visible && a.Mesh != nil && a.Mesh.NumPoints() > 0 {
			if mb := a.Mesh.Bounds(); finiteAABB(mb) {
				b.Union(mb)
			}
		}
	}
	for _, v := range r.Volumes {
		if v.Visible && v.Image != nil && v.Image.NumPoints() > 0 {
			if vb := v.Image.Bounds(); finiteAABB(vb) {
				b.Union(vb)
			}
		}
	}
	return b
}

// finiteAABB reports whether every bound component is a finite number.
func finiteAABB(b vmath.AABB) bool {
	finite := func(v vmath.Vec3) bool {
		return !math.IsInf(v.X, 0) && !math.IsNaN(v.X) &&
			!math.IsInf(v.Y, 0) && !math.IsNaN(v.Y) &&
			!math.IsInf(v.Z, 0) && !math.IsNaN(v.Z)
	}
	return finite(b.Min) && finite(b.Max)
}

// ResetCamera fits the camera to the visible bounds, as ParaView's
// ResetCamera does. With no visible geometry (an empty scene) the camera
// is left untouched — it can never become NaN.
func (r *Renderer) ResetCamera() {
	b := r.VisibleBounds()
	if !b.IsEmpty() && finiteAABB(b) {
		r.Camera.ResetToBounds(b)
	}
}

// Render draws the scene into a w x h image.
func (r *Renderer) Render(w, h int) *image.RGBA {
	fb := r.RenderFB(w, h)
	return fb.Image()
}

// RenderFB draws the scene and returns the raw framebuffer (tests inspect
// depth and float colors through it).
func (r *Renderer) RenderFB(w, h int) *Framebuffer {
	fb, _ := r.RenderFBContext(context.Background(), w, h)
	return fb
}

// frameScratch is the arena-pooled geometry-phase scratch of one frame:
// camera-space positions and base colors (resized per actor), the
// accumulated raster command list, and the wireframe seen-edge table.
// Pooling it makes the steady-state geometry phase allocation-free.
type frameScratch struct {
	cam   []vmath.Vec3
	base  []Color
	cmds  []rasterCmd
	edges *data.PairTable
}

// Reset implements par.Resetter.
func (s *frameScratch) Reset() {
	s.cam = s.cam[:0]
	s.base = s.base[:0]
	s.cmds = s.cmds[:0]
	s.edges.Reset()
}

// camBuf returns the camera-space position buffer sized for n points.
func (s *frameScratch) camBuf(n int) []vmath.Vec3 {
	if cap(s.cam) < n {
		s.cam = make([]vmath.Vec3, n)
	}
	s.cam = s.cam[:n]
	return s.cam
}

// baseBuf returns the base color buffer sized for n points.
func (s *frameScratch) baseBuf(n int) []Color {
	if cap(s.base) < n {
		s.base = make([]Color, n)
	}
	s.base = s.base[:n]
	return s.base
}

var frameArena = par.NewArena(func() *frameScratch {
	return &frameScratch{edges: data.NewPairTable()}
})

// cmdChunk is the pooled per-chunk command buffer of the parallel
// triangle emission phase.
type cmdChunk struct{ cmds []rasterCmd }

// Reset implements par.Resetter.
func (c *cmdChunk) Reset() { c.cmds = c.cmds[:0] }

var cmdArena = par.NewArena(func() *cmdChunk { return &cmdChunk{} })

// RenderFBContext is RenderFB with cancellation: geometry and raster
// phases run on the par worker pool and abort early (returning the
// partial framebuffer and ctx's error) when the context is canceled.
func (r *Renderer) RenderFBContext(ctx context.Context, w, h int) (*Framebuffer, error) {
	if w <= 0 {
		w = 300
	}
	if h <= 0 {
		h = 300
	}
	fb := NewFramebuffer(w, h, r.Background)
	bounds := r.VisibleBounds()
	if bounds.IsEmpty() {
		return fb, nil
	}
	near, far := r.Camera.clippingRange(bounds)
	view := r.Camera.ViewMatrix()
	proj := r.Camera.ProjMatrix(float64(w)/float64(h), near, far)

	// Geometry phase: every visible actor is transformed, shaded and
	// near-clipped into raster commands, in actor order, accumulated in
	// the frame's pooled scratch.
	fs := frameArena.Get()
	defer frameArena.Put(fs)
	for _, a := range r.Actors {
		if a.Visible && a.Mesh != nil {
			if err := r.emitActor(ctx, fb, a, view, proj, near, fs); err != nil {
				return fb, err
			}
		}
	}
	cmds := fs.cmds

	// Raster phase: replay the command list over disjoint row bands.
	err := par.For(ctx, h, func(y0, y1 int) {
		for i := range cmds {
			c := &cmds[i]
			if c.yMax < y0 || c.yMin >= y1 {
				continue
			}
			c.exec(fb, y0, y1)
		}
	})
	if err != nil {
		return fb, err
	}

	// Volumes composite over (and depth-test against) the rasterized
	// geometry, so they run as a third phase.
	for _, v := range r.Volumes {
		if v.Visible && v.Image != nil {
			if err := r.castVolume(ctx, fb, v, view, proj, near, far); err != nil {
				return fb, err
			}
		}
	}
	return fb, nil
}

// cmdKind discriminates raster commands.
type cmdKind uint8

const (
	cmdTriangle cmdKind = iota
	cmdBlendTriangle
	cmdLine
	cmdPoint
)

// rasterCmd is one band-replayable draw: a projected primitive with its
// parameter (opacity, line width or point size) and the conservative
// inclusive row span it can touch.
type rasterCmd struct {
	kind       cmdKind
	v0, v1, v2 vert
	param      float64
	yMin, yMax int
}

// exec replays the command restricted to rows [y0, y1).
func (c *rasterCmd) exec(fb *Framebuffer, y0, y1 int) {
	switch c.kind {
	case cmdTriangle:
		fb.triangleBand(c.v0, c.v1, c.v2, y0, y1)
	case cmdBlendTriangle:
		fb.blendTriangleBand(c.v0, c.v1, c.v2, c.param, y0, y1)
	case cmdLine:
		fb.lineBand(c.v0, c.v1, c.param, y0, y1)
	case cmdPoint:
		fb.pointBand(c.v0, c.param, y0, y1)
	}
}

func triCmd(v0, v1, v2 vert, opacity float64) rasterCmd {
	kind := cmdTriangle
	if opacity < 1 {
		kind = cmdBlendTriangle
	}
	lo := int(math.Floor(min3(v0.y, v1.y, v2.y)))
	hi := int(math.Ceil(max3(v0.y, v1.y, v2.y)))
	return rasterCmd{kind: kind, v0: v0, v1: v1, v2: v2, param: opacity, yMin: lo, yMax: hi}
}

func lineCmd(v0, v1 vert, width float64) rasterCmd {
	r := int(width/2) + 1
	lo := int(math.Floor(math.Min(v0.y, v1.y))) - r
	hi := int(math.Ceil(math.Max(v0.y, v1.y))) + r
	return rasterCmd{kind: cmdLine, v0: v0, v1: v1, param: width, yMin: lo, yMax: hi}
}

func pointCmd(v vert, size float64) rasterCmd {
	r := int(size/2) + 1
	return rasterCmd{kind: cmdPoint, v0: v, param: size, yMin: int(v.y) - r, yMax: int(v.y) + r}
}

// pipeline holds per-actor projection state.
type pipeline struct {
	fb         *Framebuffer
	view, proj vmath.Mat4
	near       float64
	camPos     vmath.Vec3
	viewDir    vmath.Vec3
}

// project maps a camera-space point to a screen vertex; ok is false when
// the point is on or behind the near plane (caller must clip first for
// primitives that straddle it).
func (pl *pipeline) project(cam vmath.Vec3, c Color) (vert, bool) {
	if cam.Z > -pl.near {
		return vert{}, false
	}
	ndc, wclip := pl.proj.MulPointW(cam)
	if wclip == 0 {
		return vert{}, false
	}
	ndc = ndc.Mul(1 / wclip)
	return vert{
		x: (ndc.X + 1) / 2 * float64(pl.fb.W),
		y: (1 - ndc.Y) / 2 * float64(pl.fb.H),
		z: ndc.Z,
		c: c,
	}, true
}

// emitActor runs the geometry phase for one actor: camera-space
// transform and vertex shading parallel over points, triangle clipping
// parallel over polygon chunks, command list appended to fs.cmds in
// deterministic (mesh) order. All per-actor buffers come from fs.
func (r *Renderer) emitActor(ctx context.Context, fb *Framebuffer, a *Actor, view, proj vmath.Mat4, near float64, fs *frameScratch) error {
	mesh := a.Mesh
	n := mesh.NumPoints()
	if n == 0 {
		return nil
	}
	pl := &pipeline{
		fb: fb, view: view, proj: proj, near: near,
		camPos:  r.Camera.Position,
		viewDir: r.Camera.Direction(),
	}
	// Camera-space positions.
	cam := fs.camBuf(n)
	if err := par.For(ctx, n, func(start, end int) {
		for i := start; i < end; i++ {
			cam[i] = view.MulPoint(mesh.Pts[i])
		}
	}); err != nil {
		return err
	}
	// Base (unshaded) per-vertex colors.
	base := fs.baseBuf(n)
	var colorField *data.Field
	if a.ColorField != "" && a.LUT != nil {
		colorField = mesh.Points.Get(a.ColorField)
	}
	if err := par.For(ctx, n, func(start, end int) {
		for i := start; i < end; i++ {
			switch {
			case colorField == nil:
				base[i] = a.SolidColor
			case colorField.NumComponents == 1:
				base[i] = a.LUT.Map(colorField.Scalar(i))
			default:
				// Vector fields color by magnitude, ParaView's default.
				base[i] = a.LUT.Map(colorField.Vec3(i).Len())
			}
		}
	}); err != nil {
		return err
	}
	normals := mesh.Points.Get("Normals")

	shade := func(i int, flat vmath.Vec3) Color {
		var nrm vmath.Vec3
		if normals != nil {
			nrm = normals.Vec3(i)
		} else {
			nrm = flat
		}
		// Headlight diffuse: full intensity facing the camera.
		d := math.Abs(nrm.Norm().Dot(pl.viewDir))
		return base[i].Scale(0.25 + 0.75*d)
	}

	drawTriangles := a.Rep == RepSurface || a.Rep == RepSurfaceWithEdges
	drawEdges := a.Rep == RepWireframe || a.Rep == RepSurfaceWithEdges
	drawAsPoints := a.Rep == RepPoints

	if drawTriangles {
		// Chunks cover disjoint polygon ranges, fan-triangulated in
		// place (the emission order matches EachTriangle), each filling
		// an arena-pooled command buffer; the ordered conveyor
		// concatenates completed buffers into the frame command list in
		// chunk order while later chunks still emit.
		err := par.OrderedSweep(ctx, len(mesh.Polys), cmdArena, func(cc *cmdChunk, start, end int) {
			out := cc.cmds
			for _, poly := range mesh.Polys[start:end] {
				for ti := 2; ti < len(poly); ti++ {
					ia, ib, ic := poly[0], poly[ti-1], poly[ti]
					flat := mesh.Pts[ib].Sub(mesh.Pts[ia]).Cross(mesh.Pts[ic].Sub(mesh.Pts[ia]))
					cs := [3]Color{shade(ia, flat), shade(ib, flat), shade(ic, flat)}
					out = clipTriangleCmds(pl, [3]vmath.Vec3{cam[ia], cam[ib], cam[ic]}, cs, a.Opacity, out)
				}
			}
			cc.cmds = out
		}, func(cc *cmdChunk) {
			fs.cmds = append(fs.cmds, cc.cmds...)
		})
		if err != nil {
			return err
		}
	}
	if drawEdges {
		edgeColor := func(i int, flat vmath.Vec3) Color {
			if a.Rep == RepSurfaceWithEdges {
				return a.EdgeColor
			}
			return shade(i, flat)
		}
		seen := fs.edges
		seen.Reset() // per-actor edge dedup
		for _, poly := range mesh.Polys {
			for i := range poly {
				p0, p1 := poly[i], poly[(i+1)%len(poly)]
				if _, added := seen.GetOrPut(data.PackPair(p0, p1), 0); !added {
					continue
				}
				flat := vmath.Vec3{}
				fs.cmds = clipLineCmds(pl, cam[p0], cam[p1],
					edgeColor(p0, flat), edgeColor(p1, flat), a.LineWidth, fs.cmds)
			}
		}
	}
	if drawAsPoints {
		for i := 0; i < n; i++ {
			if v, ok := pl.project(cam[i], base[i]); ok {
				fs.cmds = append(fs.cmds, pointCmd(v, a.PointSize))
			}
		}
	}
	// Polylines and vertex cells always draw in every representation
	// (they have no surface to show).
	for _, line := range mesh.Lines {
		for i := 0; i+1 < len(line); i++ {
			fs.cmds = clipLineCmds(pl, cam[line[i]], cam[line[i+1]],
				base[line[i]], base[line[i+1]], a.LineWidth, fs.cmds)
		}
	}
	for _, vc := range mesh.Verts {
		if len(vc) == 1 {
			if v, ok := pl.project(cam[vc[0]], base[vc[0]]); ok {
				fs.cmds = append(fs.cmds, pointCmd(v, a.PointSize))
			}
		}
	}
	return nil
}

// clipTriangleCmds clips a camera-space triangle against the near plane
// and appends the resulting raster commands.
func clipTriangleCmds(pl *pipeline, p [3]vmath.Vec3, c [3]Color, opacity float64, cmds []rasterCmd) []rasterCmd {
	if opacity <= 0 {
		return cmds
	}
	zlim := -pl.near
	inside := func(v vmath.Vec3) bool { return v.Z <= zlim }
	// Fast path: fully visible.
	if inside(p[0]) && inside(p[1]) && inside(p[2]) {
		v0, ok0 := pl.project(p[0], c[0])
		v1, ok1 := pl.project(p[1], c[1])
		v2, ok2 := pl.project(p[2], c[2])
		if ok0 && ok1 && ok2 {
			cmds = append(cmds, triCmd(v0, v1, v2, opacity))
		}
		return cmds
	}
	// Sutherland–Hodgman against the near plane. One plane cuts a
	// triangle into at most a quad, so fixed-size scratch suffices.
	type cv struct {
		p vmath.Vec3
		c Color
	}
	in := [3]cv{{p[0], c[0]}, {p[1], c[1]}, {p[2], c[2]}}
	var out [4]cv
	no := 0
	for i := range in {
		cur, nxt := in[i], in[(i+1)%len(in)]
		ci, ni := inside(cur.p), inside(nxt.p)
		lerp := func() cv {
			t := (zlim - cur.p.Z) / (nxt.p.Z - cur.p.Z)
			return cv{cur.p.Lerp(nxt.p, t), cur.c.Lerp(nxt.c, t)}
		}
		if ci {
			out[no] = cur
			no++
			if !ni {
				out[no] = lerp()
				no++
			}
		} else if ni {
			out[no] = lerp()
			no++
		}
	}
	if no < 3 {
		return cmds
	}
	var verts [4]vert
	for i := 0; i < no; i++ {
		v, ok := pl.project(out[i].p, out[i].c)
		if !ok {
			return cmds
		}
		verts[i] = v
	}
	for i := 2; i < no; i++ {
		cmds = append(cmds, triCmd(verts[0], verts[i-1], verts[i], opacity))
	}
	return cmds
}

// clipLineCmds clips a camera-space segment at the near plane and
// appends its raster command.
func clipLineCmds(pl *pipeline, p0, p1 vmath.Vec3, c0, c1 Color, width float64, cmds []rasterCmd) []rasterCmd {
	zlim := -pl.near
	i0, i1 := p0.Z <= zlim, p1.Z <= zlim
	if !i0 && !i1 {
		return cmds
	}
	if !i0 || !i1 {
		t := (zlim - p0.Z) / (p1.Z - p0.Z)
		cut := p0.Lerp(p1, t)
		cc := c0.Lerp(c1, t)
		if i0 {
			p1, c1 = cut, cc
		} else {
			p0, c0 = cut, cc
		}
	}
	v0, ok0 := pl.project(p0, c0)
	v1, ok1 := pl.project(p1, c1)
	if ok0 && ok1 {
		cmds = append(cmds, lineCmd(v0, v1, width))
	}
	return cmds
}
