package filters

import (
	"context"
	"fmt"
	"math"

	"chatvis/internal/data"
	"chatvis/internal/par"
	"chatvis/internal/vmath"
)

// VectorSampler evaluates a vector field (and optionally all other point
// fields) at arbitrary world positions. Implementations exist for image
// data (trilinear) and unstructured grids (tet-barycentric with a uniform
// cell locator).
type VectorSampler interface {
	// Velocity samples the integration vector field at p.
	Velocity(p vmath.Vec3) (vmath.Vec3, bool)
	// Fields interpolates every point field at p into dst, keyed by field
	// name; returns false if p is outside the dataset.
	Fields(p vmath.Vec3, dst map[string][]float64) bool
	// Bounds returns the dataset bounds, used for step-size heuristics.
	Bounds() vmath.AABB
	// FieldInfo lists (name, components) pairs of the sampled fields.
	FieldInfo() []FieldInfo
}

// FieldInfo describes one interpolatable field.
type FieldInfo struct {
	Name       string
	Components int
}

// ImageSampler samples fields on an ImageData by trilinear interpolation.
type ImageSampler struct {
	Image  *data.ImageData
	Vector *data.Field
}

// NewImageSampler builds a sampler integrating the named vector field.
func NewImageSampler(im *data.ImageData, vectorName string) (*ImageSampler, error) {
	f := im.Points.Get(vectorName)
	if f == nil {
		return nil, fmt.Errorf("filters: no point array named %q", vectorName)
	}
	if f.NumComponents != 3 {
		return nil, fmt.Errorf("filters: array %q is not a vector", vectorName)
	}
	return &ImageSampler{Image: im, Vector: f}, nil
}

// Velocity implements VectorSampler.
func (s *ImageSampler) Velocity(p vmath.Vec3) (vmath.Vec3, bool) {
	return s.Image.SampleVector(s.Vector, p)
}

// Fields implements VectorSampler.
func (s *ImageSampler) Fields(p vmath.Vec3, dst map[string][]float64) bool {
	pd := s.Image.Points
	for i := 0; i < pd.Len(); i++ {
		f := pd.At(i)
		switch f.NumComponents {
		case 1:
			v, ok := s.Image.SampleScalar(f, p)
			if !ok {
				return false
			}
			dst[f.Name] = append(dst[f.Name][:0], v)
		case 3:
			v, ok := s.Image.SampleVector(f, p)
			if !ok {
				return false
			}
			dst[f.Name] = append(dst[f.Name][:0], v.X, v.Y, v.Z)
		}
	}
	return true
}

// Bounds implements VectorSampler.
func (s *ImageSampler) Bounds() vmath.AABB { return s.Image.Bounds() }

// FieldInfo implements VectorSampler.
func (s *ImageSampler) FieldInfo() []FieldInfo { return fieldInfo(s.Image.Points) }

func fieldInfo(fs *data.FieldSet) []FieldInfo {
	var out []FieldInfo
	for i := 0; i < fs.Len(); i++ {
		f := fs.At(i)
		if f.NumComponents == 1 || f.NumComponents == 3 {
			out = append(out, FieldInfo{Name: f.Name, Components: f.NumComponents})
		}
	}
	return out
}

// GridSampler samples fields on an unstructured grid. Cells are
// decomposed into tetrahedra, binned into a uniform spatial grid, and
// interpolation uses barycentric coordinates.
type GridSampler struct {
	grid   *data.UnstructuredGrid
	vector *data.Field
	tets   [][4]int
	bounds vmath.AABB
	// uniform locator
	div  [3]int
	cell vmath.Vec3
	bins [][]int32
	inv  vmath.Vec3
	eps  float64
}

// NewGridSampler builds a sampler over ug integrating the named vector
// field.
func NewGridSampler(ug *data.UnstructuredGrid, vectorName string) (*GridSampler, error) {
	f := ug.Points.Get(vectorName)
	if f == nil {
		return nil, fmt.Errorf("filters: no point array named %q", vectorName)
	}
	if f.NumComponents != 3 {
		return nil, fmt.Errorf("filters: array %q is not a vector", vectorName)
	}
	tets := GridTets(ug)
	if len(tets) == 0 {
		return nil, fmt.Errorf("filters: dataset has no volumetric cells to trace through")
	}
	s := &GridSampler{grid: ug, vector: f, tets: tets, bounds: ug.Bounds()}
	// Locator resolution: roughly cube-root of tet count per axis.
	res := int(math.Cbrt(float64(len(tets)))) + 1
	if res < 2 {
		res = 2
	}
	if res > 64 {
		res = 64
	}
	s.div = [3]int{res, res, res}
	size := s.bounds.Size()
	s.cell = vmath.V(
		nonzeroDiv(size.X, float64(res)),
		nonzeroDiv(size.Y, float64(res)),
		nonzeroDiv(size.Z, float64(res)))
	s.inv = vmath.V(1/s.cell.X, 1/s.cell.Y, 1/s.cell.Z)
	s.eps = s.bounds.Diagonal() * 1e-9
	s.bins = make([][]int32, res*res*res)
	for ti, t := range s.tets {
		bb := vmath.EmptyAABB()
		for _, id := range t {
			bb.Extend(ug.Pts[id])
		}
		i0, j0, k0 := s.binIJK(bb.Min)
		i1, j1, k1 := s.binIJK(bb.Max)
		for k := k0; k <= k1; k++ {
			for j := j0; j <= j1; j++ {
				for i := i0; i <= i1; i++ {
					b := i + res*(j+res*k)
					s.bins[b] = append(s.bins[b], int32(ti))
				}
			}
		}
	}
	return s, nil
}

func nonzeroDiv(v, d float64) float64 {
	c := v / d
	if c <= 0 {
		return 1
	}
	return c
}

func (s *GridSampler) binIJK(p vmath.Vec3) (i, j, k int) {
	clampi := func(v, hi int) int {
		if v < 0 {
			return 0
		}
		if v > hi {
			return hi
		}
		return v
	}
	i = clampi(int((p.X-s.bounds.Min.X)*s.inv.X), s.div[0]-1)
	j = clampi(int((p.Y-s.bounds.Min.Y)*s.inv.Y), s.div[1]-1)
	k = clampi(int((p.Z-s.bounds.Min.Z)*s.inv.Z), s.div[2]-1)
	return
}

// locate finds a tet containing p and its barycentric coordinates.
func (s *GridSampler) locate(p vmath.Vec3) (t [4]int, l [4]float64, ok bool) {
	if !s.bounds.Expanded(s.eps).Contains(p) {
		return t, l, false
	}
	i, j, k := s.binIJK(p)
	bin := s.bins[i+s.div[0]*(j+s.div[1]*k)]
	for _, ti := range bin {
		tt := s.tets[ti]
		bl, good := Barycentric(p, s.grid.Pts[tt[0]], s.grid.Pts[tt[1]], s.grid.Pts[tt[2]], s.grid.Pts[tt[3]])
		if good && InsideTet(bl, 1e-9) {
			return tt, bl, true
		}
	}
	return t, l, false
}

// Velocity implements VectorSampler.
func (s *GridSampler) Velocity(p vmath.Vec3) (vmath.Vec3, bool) {
	t, l, ok := s.locate(p)
	if !ok {
		return vmath.Vec3{}, false
	}
	var v vmath.Vec3
	for i := 0; i < 4; i++ {
		v = v.Add(s.vector.Vec3(t[i]).Mul(l[i]))
	}
	return v, true
}

// Fields implements VectorSampler.
func (s *GridSampler) Fields(p vmath.Vec3, dst map[string][]float64) bool {
	t, l, ok := s.locate(p)
	if !ok {
		return false
	}
	pd := s.grid.Points
	for i := 0; i < pd.Len(); i++ {
		f := pd.At(i)
		if f.NumComponents != 1 && f.NumComponents != 3 {
			continue
		}
		vals := dst[f.Name][:0]
		for c := 0; c < f.NumComponents; c++ {
			v := 0.0
			for vi := 0; vi < 4; vi++ {
				v += f.Value(t[vi], c) * l[vi]
			}
			vals = append(vals, v)
		}
		dst[f.Name] = vals
	}
	return true
}

// Bounds implements VectorSampler.
func (s *GridSampler) Bounds() vmath.AABB { return s.bounds }

// FieldInfo implements VectorSampler.
func (s *GridSampler) FieldInfo() []FieldInfo { return fieldInfo(s.grid.Points) }

// StreamTracerOptions configures streamline integration, mirroring the
// knobs of ParaView's StreamTracer proxy that the experiments use.
type StreamTracerOptions struct {
	// MaxSteps bounds the number of RK4 steps per direction (default 1000).
	MaxSteps int
	// StepFraction is the integration step as a fraction of the dataset
	// diagonal (default 1/500).
	StepFraction float64
	// MaxLength bounds total streamline arc length as a multiple of the
	// dataset diagonal (default 2).
	MaxLength float64
	// TerminalSpeed stops integration in near-stagnant flow (default 1e-9).
	TerminalSpeed float64
	// Both integrates backward as well as forward (default true, matching
	// ParaView's BOTH direction default).
	Both bool
}

func (o StreamTracerOptions) withDefaults() StreamTracerOptions {
	if o.MaxSteps <= 0 {
		o.MaxSteps = 1000
	}
	if o.StepFraction <= 0 {
		o.StepFraction = 1.0 / 500
	}
	if o.MaxLength <= 0 {
		o.MaxLength = 2
	}
	if o.TerminalSpeed <= 0 {
		o.TerminalSpeed = 1e-9
	}
	return o
}

// streamChunk accumulates the output of a contiguous run of seeds in
// struct-of-arrays form: flat point/attribute/time slabs plus polyline
// connectivity (conn/lens) in chunk-local ids. Chunks concatenate in
// chunk order — and seeds trace in order within a chunk — reproducing
// the serial output exactly. Chunks are arena-pooled, so the per-seed
// scratch (RK4 id buffers, the sampler field map) is reused across
// seeds and across sweeps.
type streamChunk struct {
	pts    []vmath.Vec3
	fields [][]float64 // indexed like FieldInfo
	times  []float64
	conn   []int32 // polyline connectivity, chunk-local ids
	lens   []int32 // points per polyline

	fwd, bwd []int32 // per-seed direction scratch
	scratch  map[string][]float64
}

// Reset implements par.Resetter.
func (c *streamChunk) Reset() {
	c.pts = c.pts[:0]
	for i := range c.fields {
		c.fields[i] = c.fields[i][:0]
	}
	c.fields = c.fields[:0]
	c.times = c.times[:0]
	c.conn = c.conn[:0]
	c.lens = c.lens[:0]
	c.fwd = c.fwd[:0]
	c.bwd = c.bwd[:0]
}

func (c *streamChunk) bind(nFields int) {
	if cap(c.fields) < nFields {
		c.fields = append(c.fields[:cap(c.fields)], make([][]float64, nFields-cap(c.fields))...)
	}
	c.fields = c.fields[:nFields]
	for i := range c.fields {
		c.fields[i] = c.fields[i][:0]
	}
	if c.scratch == nil {
		c.scratch = make(map[string][]float64, nFields)
	}
}

var streamArena = par.NewArena(func() *streamChunk { return &streamChunk{} })

// traceSeed integrates one seed in both (or one) direction(s) with the
// same stepping logic as the serial tracer, appending into the chunk's
// slabs. The sampler is read-only, so chunks integrate concurrently.
func (c *streamChunk) traceSeed(s VectorSampler, seed vmath.Vec3, opt StreamTracerOptions, infos []FieldInfo, h, maxLen float64) {
	appendPoint := func(p vmath.Vec3, tm float64) (int32, bool) {
		if !s.Fields(p, c.scratch) {
			return 0, false
		}
		id := int32(len(c.pts))
		c.pts = append(c.pts, p)
		for i, info := range infos {
			c.fields[i] = append(c.fields[i], c.scratch[info.Name]...)
		}
		c.times = append(c.times, tm)
		return id, true
	}

	rk4 := func(p vmath.Vec3, dir float64) (vmath.Vec3, bool) {
		k1, ok := s.Velocity(p)
		if !ok {
			return p, false
		}
		k2, ok := s.Velocity(p.Add(k1.Norm().Mul(dir * h / 2)))
		if !ok {
			return p, false
		}
		k3, ok := s.Velocity(p.Add(k2.Norm().Mul(dir * h / 2)))
		if !ok {
			return p, false
		}
		k4, ok := s.Velocity(p.Add(k3.Norm().Mul(dir * h)))
		if !ok {
			return p, false
		}
		// Normalized-velocity RK4: fixed spatial step along the blended
		// direction (VTK integrates in cell-length units similarly).
		d := k1.Norm().Add(k2.Norm().Mul(2)).Add(k3.Norm().Mul(2)).Add(k4.Norm()).Mul(1.0 / 6)
		if d.Len() < 1e-12 {
			return p, false
		}
		return p.Add(d.Norm().Mul(dir * h)), true
	}

	trace := func(dir float64, ids []int32) []int32 {
		ids = ids[:0]
		p := seed
		tm := 0.0
		length := 0.0
		id, ok := appendPoint(p, 0)
		if !ok {
			return ids
		}
		ids = append(ids, id)
		for step := 0; step < opt.MaxSteps; step++ {
			v, ok := s.Velocity(p)
			if !ok || v.Len() < opt.TerminalSpeed {
				break
			}
			np, ok := rk4(p, dir)
			if !ok {
				break
			}
			moved := np.Sub(p).Len()
			if moved < 1e-14 {
				break
			}
			length += moved
			tm += dir * moved / math.Max(v.Len(), opt.TerminalSpeed)
			p = np
			nid, ok := appendPoint(p, tm)
			if !ok {
				break
			}
			ids = append(ids, nid)
			if length >= maxLen {
				break
			}
		}
		return ids
	}

	c.fwd = trace(+1, c.fwd)
	if opt.Both {
		c.bwd = trace(-1, c.bwd)
		// Join: reverse(backward) + forward (dropping duplicate seed).
		if len(c.bwd) > 1 {
			if n := len(c.bwd) - 1 + len(c.fwd); n >= 2 {
				c.lens = append(c.lens, int32(n))
				for i := len(c.bwd) - 1; i >= 1; i-- {
					c.conn = append(c.conn, c.bwd[i])
				}
				c.conn = append(c.conn, c.fwd...)
			}
			return
		}
	}
	if len(c.fwd) >= 2 {
		c.lens = append(c.lens, int32(len(c.fwd)))
		c.conn = append(c.conn, c.fwd...)
	}
}

// StreamTracer integrates streamlines from the given seed points through
// the sampled vector field using fourth-order Runge–Kutta, producing a
// PolyData of polylines with every point field interpolated along the
// lines plus an "IntegrationTime" array, like VTK's stream tracer.
func StreamTracer(s VectorSampler, seeds []vmath.Vec3, opt StreamTracerOptions) *data.PolyData {
	out, _ := StreamTracerContext(context.Background(), s, seeds, opt)
	return out
}

// StreamTracerContext is StreamTracer with cancellation. Seeds integrate
// independently on the par worker pool (samplers are read-only after
// construction); segments concatenate in seed order, so the output is
// byte-identical to a serial trace for any worker count.
func StreamTracerContext(ctx context.Context, s VectorSampler, seeds []vmath.Vec3, opt StreamTracerOptions) (*data.PolyData, error) {
	opt = opt.withDefaults()
	out := data.NewPolyData()
	infos := s.FieldInfo()
	outFields := make([]*data.Field, len(infos))
	for i, info := range infos {
		outFields[i] = data.NewField(info.Name, info.Components, 0)
		out.Points.Add(outFields[i])
	}
	timeField := data.NewField("IntegrationTime", 1, 0)
	out.Points.Add(timeField)

	h := s.Bounds().Diagonal() * opt.StepFraction
	maxLen := s.Bounds().Diagonal() * opt.MaxLength

	// Pipelined ordered merge: seeds integrate in chunks while the
	// conveyor concatenates completed chunks into an arena-pooled
	// accumulator in seed order — points are offset by the accumulator's
	// running base as each chunk lands, exactly as the old barrier merge
	// did in chunk order.
	gs := streamArena.Get()
	defer streamArena.Put(gs)
	gs.bind(len(infos))
	err := par.OrderedSweep(ctx, len(seeds), streamArena, func(c *streamChunk, start, end int) {
		c.bind(len(infos))
		for i := start; i < end; i++ {
			c.traceSeed(s, seeds[i], opt, infos, h, maxLen)
		}
	}, func(ch *streamChunk) {
		base := int32(len(gs.pts))
		gs.pts = append(gs.pts, ch.pts...)
		for i := range infos {
			gs.fields[i] = append(gs.fields[i], ch.fields[i]...)
		}
		gs.times = append(gs.times, ch.times...)
		for _, id := range ch.conn {
			gs.conn = append(gs.conn, base+id)
		}
		gs.lens = append(gs.lens, ch.lens...)
	})
	if err != nil {
		return nil, err
	}
	out.Pts = append(make([]vmath.Vec3, 0, len(gs.pts)), gs.pts...)
	for i := range infos {
		outFields[i].Data = append(make([]float64, 0, len(gs.fields[i])), gs.fields[i]...)
	}
	timeField.Data = append(make([]float64, 0, len(gs.times)), gs.times...)
	out.Lines = make([][]int, 0, len(gs.lens))
	out.ReserveConn(len(gs.conn))
	off := 0
	for _, n := range gs.lens {
		ids := out.NewLine(int(n))
		for k := range ids {
			ids[k] = int(gs.conn[off+k])
		}
		off += int(n)
	}
	return out, nil
}

// DefaultPointCloudSeeds reproduces ParaView's "Point Cloud" seed type:
// n points uniformly distributed in a sphere centred at the dataset centre
// with radius a tenth of the diagonal (ParaView's default). Deterministic:
// a low-discrepancy spiral plus radial stratification.
func DefaultPointCloudSeeds(bounds vmath.AABB, n int) []vmath.Vec3 {
	if n <= 0 {
		n = 100
	}
	c := bounds.Center()
	radius := bounds.Diagonal() * 0.1
	seeds := make([]vmath.Vec3, n)
	golden := math.Pi * (3 - math.Sqrt(5))
	for i := 0; i < n; i++ {
		// Fibonacci sphere direction.
		y := 1 - 2*(float64(i)+0.5)/float64(n)
		r := math.Sqrt(1 - y*y)
		th := golden * float64(i)
		dir := vmath.V(r*math.Cos(th), y, r*math.Sin(th))
		// Stratified radius for uniform density in the ball.
		rad := radius * math.Cbrt((float64(i)+0.5)/float64(n))
		seeds[i] = c.Add(dir.Mul(rad))
	}
	return seeds
}
