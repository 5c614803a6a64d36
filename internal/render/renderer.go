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
// A frame renders in three phases. The geometry phase makes one pass
// over each visible actor's points: the camera-space position, the base
// colour, the headlight-shaded colour when the mesh has normals, and the
// projected screen vertex with its state (projected, behind the near
// plane, or not projectable). Triangles whose three corners are
// projected reuse those vertices; a triangle with a corner behind the
// near plane is clipped. Emission appends raster commands in mesh order,
// each triangle with its pixel bounding box. The commands are then
// binned by fixed-height row band, and the raster phase runs the bands
// in parallel, each replaying only its own commands in emission order.
// Every pixel belongs to exactly one band, so the frame is
// byte-identical for any worker count. Volumes are ray-cast last,
// depth-tested against the geometry.
//
// Render and RenderContext draw into a pooled framebuffer and return
// only the 8-bit image; RenderFB and RenderFBContext return a fresh
// framebuffer the caller owns.
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
	img, _ := r.RenderContext(context.Background(), w, h)
	return img
}

// RenderContext is Render with cancellation. The float framebuffer it
// draws into comes from a pool and goes back once the image is made.
func (r *Renderer) RenderContext(ctx context.Context, w, h int) (*image.RGBA, error) {
	w, h = frameSize(w, h)
	p := framePool.Get()
	defer p.release()
	fb := &p.fb
	fb.reset(w, h, r.Background)
	if err := r.renderInto(ctx, fb); err != nil {
		return nil, err
	}
	return fb.Image(), nil
}

// RenderFB draws the scene and returns the raw framebuffer (tests inspect
// depth and float colors through it).
func (r *Renderer) RenderFB(w, h int) *Framebuffer {
	fb, _ := r.RenderFBContext(context.Background(), w, h)
	return fb
}

// RenderFBContext is RenderFB with cancellation: geometry and raster
// phases run on the par worker pool and abort early (returning the
// partial framebuffer and ctx's error) when the context is canceled.
func (r *Renderer) RenderFBContext(ctx context.Context, w, h int) (*Framebuffer, error) {
	w, h = frameSize(w, h)
	fb := NewFramebuffer(w, h, r.Background)
	return fb, r.renderInto(ctx, fb)
}

// frameSize applies the default size to a non-positive dimension.
func frameSize(w, h int) (int, int) {
	if w <= 0 {
		w = 300
	}
	if h <= 0 {
		h = 300
	}
	return w, h
}

// bandRows is the height of a raster band. It does not depend on the
// worker count: the bands, and so each band's command list, are the same
// for any number of workers.
const bandRows = 16

// frameScratch is the arena-pooled geometry-phase scratch of one frame:
// the per-vertex buffers (resized per actor), the accumulated raster
// command list, its band bins, and the wireframe seen-edge table.
// Pooling it makes the steady-state geometry phase allocation-free.
type frameScratch struct {
	cam   []vmath.Vec3
	base  []Color
	scr   []vert
	state []vertState
	cmds  []rasterCmd
	// The band bins in CSR form: band b replays the commands
	// binCmds[binStart[b]:binStart[b+1]], in emission order.
	binStart []int32
	binCmds  []int32
	spans    [][2]int32 // each command's first and last band
	edges    *data.PairTable
}

// Reset implements par.Resetter.
func (s *frameScratch) Reset() {
	s.cam = s.cam[:0]
	s.base = s.base[:0]
	s.scr = s.scr[:0]
	s.state = s.state[:0]
	s.cmds = s.cmds[:0]
	s.binStart = s.binStart[:0]
	s.binCmds = s.binCmds[:0]
	s.spans = s.spans[:0]
	s.edges.Reset()
}

// resize returns buf with length n, reallocated only when its capacity
// is short.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

var frameArena = par.NewArena(func() *frameScratch {
	return &frameScratch{edges: data.NewPairTable()}
})

// renderInto draws the scene into fb, which holds the cleared frame.
func (r *Renderer) renderInto(ctx context.Context, fb *Framebuffer) error {
	bounds := r.VisibleBounds()
	if bounds.IsEmpty() {
		return nil
	}
	near, far := r.Camera.clippingRange(bounds)
	view := r.Camera.ViewMatrix()
	proj := r.Camera.ProjMatrix(float64(fb.W)/float64(fb.H), near, far)

	// Geometry phase: every visible actor is transformed, shaded and
	// near-clipped into raster commands, in actor order, accumulated in
	// the frame's pooled scratch.
	fs := frameArena.Get()
	defer frameArena.Put(fs)
	for _, a := range r.Actors {
		if a.Visible && a.Mesh != nil {
			if err := r.emitActor(ctx, fb, a, view, proj, near, fs); err != nil {
				return err
			}
		}
	}

	// Raster phase: each band replays the commands binned to it.
	fs.binBands(fb.H)
	cmds, start, idx := fs.cmds, fs.binStart, fs.binCmds
	err := par.For(ctx, len(start)-1, func(b0, b1 int) {
		for b := b0; b < b1; b++ {
			y0, y1 := b*bandRows, min((b+1)*bandRows, fb.H)
			for _, ci := range idx[start[b]:start[b+1]] {
				cmds[ci].exec(fb, y0, y1)
			}
		}
	})
	if err != nil {
		return err
	}

	// Volumes composite over (and depth-test against) the rasterized
	// geometry, so they run as a third phase.
	for _, v := range r.Volumes {
		if v.Visible && v.Image != nil {
			if err := r.castVolume(ctx, fb, v, view, proj, near, far); err != nil {
				return err
			}
		}
	}
	return nil
}

// binBands sorts the command list into the bands of a frame h rows
// tall, in CSR form: a count per band, a prefix sum, then each command's
// index written to every band it reaches, in emission order.
func (s *frameScratch) binBands(h int) {
	nb := (h + bandRows - 1) / bandRows
	s.binStart = resize(s.binStart, nb+1)
	s.spans = resize(s.spans, len(s.cmds))
	start, spans := s.binStart, s.spans
	clear(start)
	for i := range s.cmds {
		// The bands the command's rows [yMin, yMax] reach in the frame;
		// none when lo > hi.
		c := &s.cmds[i]
		y0, y1 := max(c.yMin, 0), min(c.yMax, h-1)
		lo, hi := int32(1), int32(0)
		if y0 <= y1 {
			lo, hi = int32(y0/bandRows), int32(y1/bandRows)
		}
		spans[i] = [2]int32{lo, hi}
		for b := lo; b <= hi; b++ {
			start[b+1]++
		}
	}
	for b := 1; b <= nb; b++ {
		start[b] += start[b-1]
	}
	s.binCmds = resize(s.binCmds, int(start[nb]))
	// Fill each band at its start, advancing the start as a cursor: it
	// ends at the band's end, which is the next band's start.
	for i, sp := range spans {
		for b := sp[0]; b <= sp[1]; b++ {
			s.binCmds[start[b]] = int32(i)
			start[b]++
		}
	}
	copy(start[1:], start[:nb])
	start[0] = 0
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
// inclusive row span it can touch. A triangle also carries the inverse
// of its doubled signed area and its pixel columns, clamped to the frame.
type rasterCmd struct {
	kind       cmdKind
	v0, v1, v2 vert
	param      float64
	inv        float64
	yMin, yMax int
	xMin, xMax int
}

// exec replays the command restricted to rows [y0, y1).
func (c *rasterCmd) exec(fb *Framebuffer, y0, y1 int) {
	switch c.kind {
	case cmdTriangle, cmdBlendTriangle:
		fb.triangleBand(c, y0, y1)
	case cmdLine:
		fb.lineBand(c.v0, c.v1, c.param, y0, y1)
	case cmdPoint:
		fb.pointBand(c.v0, c.param, y0, y1)
	}
}

// appendTriCmd appends the command of a projected triangle in a frame w
// pixels wide, unless the triangle can draw no pixel. A zero-area
// triangle draws none. Neither does one with a NaN screen coordinate:
// every barycentric weight, and so the depth, is NaN, which fails every
// depth test. Dropping those here means min3 and max3 never see a NaN.
func appendTriCmd(cmds []rasterCmd, w int, v0, v1, v2 vert, opacity float64) []rasterCmd {
	if math.IsNaN(v0.x) || math.IsNaN(v0.y) || math.IsNaN(v1.x) || math.IsNaN(v1.y) ||
		math.IsNaN(v2.x) || math.IsNaN(v2.y) {
		return cmds
	}
	area := edge(v0, v1, v2.x, v2.y)
	if area == 0 {
		return cmds
	}
	kind := cmdTriangle
	if opacity < 1 {
		kind = cmdBlendTriangle
	}
	return append(cmds, rasterCmd{
		kind: kind, v0: v0, v1: v1, v2: v2, param: opacity, inv: 1 / area,
		yMin: int(math.Floor(min3(v0.y, v1.y, v2.y))),
		yMax: int(math.Ceil(max3(v0.y, v1.y, v2.y))),
		xMin: max(int(math.Floor(min3(v0.x, v1.x, v2.x))), 0),
		xMax: min(int(math.Ceil(max3(v0.x, v1.x, v2.x))), w-1),
	})
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
	fb      *Framebuffer
	proj    vmath.Mat4
	near    float64
	viewDir vmath.Vec3
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

// vertState is where the geometry pass left a vertex.
type vertState uint8

const (
	// vertProjected: in front of the near plane and projected.
	vertProjected vertState = iota
	// vertBehind: on or behind the near plane, or at a NaN depth; a
	// triangle with such a corner is clipped.
	vertBehind
	// vertUnprojectable: in front of the near plane, but its clip-space
	// w is 0; a triangle with such a corner is dropped.
	vertUnprojectable
)

// emitActor runs the geometry phase for one actor: one parallel pass
// over points, then emission of the actor's commands, appended to
// fs.cmds in mesh order. All per-actor buffers come from fs.
func (r *Renderer) emitActor(ctx context.Context, fb *Framebuffer, a *Actor, view, proj vmath.Mat4, near float64, fs *frameScratch) error {
	mesh := a.Mesh
	n := mesh.NumPoints()
	if n == 0 {
		return nil
	}
	pl := &pipeline{fb: fb, proj: proj, near: near, viewDir: r.Camera.Direction()}
	var colorField *data.Field
	if a.ColorField != "" && a.LUT != nil {
		colorField = mesh.Points.Get(a.ColorField)
	}
	normals := mesh.Points.Get("Normals")
	// Headlight diffuse: full intensity facing the camera.
	shadeFactor := func(nrm vmath.Vec3) float64 {
		return 0.25 + 0.75*math.Abs(nrm.Norm().Dot(pl.viewDir))
	}

	drawTriangles := a.Rep == RepSurface || a.Rep == RepSurfaceWithEdges
	drawEdges := a.Rep == RepWireframe || a.Rep == RepSurfaceWithEdges
	drawAsPoints := a.Rep == RepPoints

	// The per-vertex pass: camera-space position and base (unshaded)
	// colour; in scr, the shaded colour (the base colour when the mesh
	// has no normals) and, for triangle representations, the projected
	// screen vertex with its state.
	fs.cam, fs.base = resize(fs.cam, n), resize(fs.base, n)
	fs.scr, fs.state = resize(fs.scr, n), resize(fs.state, n)
	cam, base, scr, state := fs.cam, fs.base, fs.scr, fs.state
	zlim := -near
	if err := par.For(ctx, n, func(start, end int) {
		for i := start; i < end; i++ {
			cam[i] = view.MulPoint(mesh.Pts[i])
			switch {
			case colorField == nil:
				base[i] = a.SolidColor
			case colorField.NumComponents == 1:
				base[i] = a.LUT.Map(colorField.Scalar(i))
			default:
				// Vector fields color by magnitude, ParaView's default.
				base[i] = a.LUT.Map(colorField.Vec3(i).Len())
			}
			v := vert{c: base[i]}
			if normals != nil {
				v.c = base[i].Scale(shadeFactor(normals.Vec3(i)))
			}
			st := vertBehind
			if drawTriangles && cam[i].Z <= zlim {
				st = vertUnprojectable
				if p, ok := pl.project(cam[i], v.c); ok {
					v, st = p, vertProjected
				}
			}
			scr[i], state[i] = v, st
		}
	}); err != nil {
		return err
	}

	// Triangles at an opacity of zero or less draw nothing; a NaN
	// opacity draws them opaque.
	if drawTriangles && !(a.Opacity <= 0) {
		// Fan-triangulated in place: the emission order matches
		// EachTriangle. The per-vertex pass did the costly work, so this
		// loop is serial and appends straight to the frame's list.
		out := fs.cmds
		for _, poly := range mesh.Polys {
			for ti := 2; ti < len(poly); ti++ {
				ia, ib, ic := poly[0], poly[ti-1], poly[ti]
				v0, v1, v2 := scr[ia], scr[ib], scr[ic]
				if normals == nil {
					// Flat shading: one factor per triangle, from its
					// face normal.
					flat := mesh.Pts[ib].Sub(mesh.Pts[ia]).Cross(mesh.Pts[ic].Sub(mesh.Pts[ia]))
					s := shadeFactor(flat)
					v0.c, v1.c, v2.c = base[ia].Scale(s), base[ib].Scale(s), base[ic].Scale(s)
				}
				if state[ia] == vertProjected && state[ib] == vertProjected && state[ic] == vertProjected {
					out = appendTriCmd(out, fb.W, v0, v1, v2, a.Opacity)
				} else {
					out = clipTriangleCmds(pl, [3]vmath.Vec3{cam[ia], cam[ib], cam[ic]},
						[3]Color{v0.c, v1.c, v2.c}, a.Opacity, out)
				}
			}
		}
		fs.cmds = out
	}
	if drawEdges {
		// Wireframe edges are shaded per vertex, or by a zero face
		// normal when the mesh has none.
		edgeShade := shadeFactor(vmath.Vec3{})
		edgeColor := func(i int) Color {
			switch {
			case a.Rep == RepSurfaceWithEdges:
				return a.EdgeColor
			case normals != nil:
				return scr[i].c
			}
			return base[i].Scale(edgeShade)
		}
		seen := fs.edges
		seen.Reset() // per-actor edge dedup
		for _, poly := range mesh.Polys {
			for i := range poly {
				p0, p1 := poly[i], poly[(i+1)%len(poly)]
				if _, added := seen.GetOrPut(data.PackPair(p0, p1), 0); !added {
					continue
				}
				fs.cmds = clipLineCmds(pl, cam[p0], cam[p1],
					edgeColor(p0), edgeColor(p1), a.LineWidth, fs.cmds)
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

// clipTriangleCmds takes a camera-space triangle with a corner the
// per-vertex pass did not project. A triangle in front of the near plane
// with a corner whose clip-space w is 0 draws nothing; one with a corner
// behind the plane is clipped against it, and its pieces appended.
func clipTriangleCmds(pl *pipeline, p [3]vmath.Vec3, c [3]Color, opacity float64, cmds []rasterCmd) []rasterCmd {
	zlim := -pl.near
	inside := func(v vmath.Vec3) bool { return v.Z <= zlim }
	if inside(p[0]) && inside(p[1]) && inside(p[2]) {
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
		cmds = appendTriCmd(cmds, pl.fb.W, verts[0], verts[i-1], verts[i], opacity)
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
