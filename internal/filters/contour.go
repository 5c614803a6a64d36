package filters

import (
	"context"
	"fmt"

	"chatvis/internal/data"
	"chatvis/internal/par"
	"chatvis/internal/vmath"
)

// surfaceBuilder accumulates an interpolated triangle mesh during marching
// tetrahedra, in struct-of-arrays form: flat vertex/key/attribute/triangle
// slabs instead of a PolyData with one allocation per cell. Vertices
// created on the same source edge are shared (open-addressing PairTable
// keyed by the canonical edge), so the output is watertight and point data
// interpolates once per edge. Each vertex remembers its canonical edge key
// so chunk-local builders can be merged into the exact point numbering a
// serial sweep would produce.
//
// Builders are arena-pooled: one is checked out per chunk of a sweep and
// recycled after the merge, so steady-state sweeps allocate only the final
// exact-size output.
type surfaceBuilder struct {
	src       data.Dataset
	srcFields []*data.Field

	pts   []vmath.Vec3 // interpolated vertices, creation order
	keys  []uint64     // canonical edge key of each vertex (PackPair)
	fdata [][]float64  // interpolated attributes, parallel to srcFields
	tris  []int32      // triangle connectivity, 3 builder-local ids per tri
	edges *data.PairTable
	remap []int32  // absorb scratch: chunk-local id -> accumulator id
	tets  [][4]int // sweep scratch: the current cell's tetrahedra
}

// Reset implements par.Resetter: empty every slab, keep every capacity.
func (b *surfaceBuilder) Reset() {
	b.src = nil
	b.srcFields = b.srcFields[:0]
	b.pts = b.pts[:0]
	b.keys = b.keys[:0]
	b.tris = b.tris[:0]
	for i := range b.fdata {
		b.fdata[i] = b.fdata[i][:0]
	}
	b.fdata = b.fdata[:0]
	b.edges.Reset()
	b.remap = b.remap[:0]
	b.tets = b.tets[:0]
}

// bind points a clean builder at a source dataset, recycling the
// per-field attribute slabs from previous sweeps.
func (b *surfaceBuilder) bind(src data.Dataset) {
	b.src = src
	pd := src.PointData()
	n := pd.Len()
	for i := 0; i < n; i++ {
		b.srcFields = append(b.srcFields, pd.At(i))
	}
	if cap(b.fdata) < n {
		b.fdata = append(b.fdata[:cap(b.fdata)], make([][]float64, n-cap(b.fdata))...)
	}
	b.fdata = b.fdata[:n]
	for i := range b.fdata {
		b.fdata[i] = b.fdata[i][:0]
	}
}

var surfaceArena = par.NewArena(func() *surfaceBuilder {
	return &surfaceBuilder{edges: data.NewPairTable()}
})

// edgeVertex returns the builder-local vertex on edge (i,j), creating and
// interpolating it on first use. The crossing parameter is computed from
// the canonical (low-id first) edge orientation, so the stored position
// and attributes are bit-identical no matter which tetrahedron — or which
// parallel chunk — touches the edge first.
func (b *surfaceBuilder) edgeVertex(i, j int, level func(int) float64, iso float64) int32 {
	key := data.PackPair(i, j)
	id, added := b.edges.GetOrPut(key, int32(len(b.pts)))
	if !added {
		return id
	}
	lo, hi := data.UnpackPair(key)
	v0, v1 := level(lo), level(hi)
	t := 0.5
	if v0 != v1 {
		t = (iso - v0) / (v1 - v0)
	}
	b.pts = append(b.pts, b.src.Point(lo).Lerp(b.src.Point(hi), t))
	b.keys = append(b.keys, key)
	for fi, f := range b.srcFields {
		d := b.fdata[fi]
		for c := 0; c < f.NumComponents; c++ {
			f0 := f.Value(lo, c)
			f1 := f.Value(hi, c)
			d = append(d, f0+t*(f1-f0))
		}
		b.fdata[fi] = d
	}
	return id
}

// marchTet emits the isosurface triangles of one tetrahedron. level holds
// the per-point contouring scalar (field value for isosurfaces, signed
// plane distance for slices); iso is the threshold. All scratch lives in
// fixed-size locals — the per-tet path allocates nothing.
func (b *surfaceBuilder) marchTet(t [4]int, level func(int) float64, iso float64) {
	var inside [4]bool
	var nIn int
	var v [4]float64
	for i, id := range t {
		v[i] = level(id)
		if v[i] >= iso {
			inside[i] = true
			nIn++
		}
	}
	if nIn == 0 || nIn == 4 {
		return
	}
	ev := func(i, j int) int32 {
		return b.edgeVertex(t[i], t[j], level, iso)
	}
	// Orient triangles so the normal points from the >=iso side toward the
	// <iso side (outward from the enclosed high-value region).
	addTri := func(a, bb, c int32, refInside int) {
		pa, pb, pc := b.pts[a], b.pts[bb], b.pts[c]
		n := pb.Sub(pa).Cross(pc.Sub(pa))
		toInside := b.src.Point(t[refInside]).Sub(pa)
		if n.Dot(toInside) > 0 {
			b.tris = append(b.tris, a, c, bb)
		} else {
			b.tris = append(b.tris, a, bb, c)
		}
	}
	switch nIn {
	case 1, 3:
		// One vertex isolated on one side: single triangle.
		iso1 := -1
		want := nIn == 1 // isolated vertex is inside when nIn==1
		for i := 0; i < 4; i++ {
			if inside[i] == want {
				iso1 = i
				break
			}
		}
		var others [3]int
		no := 0
		for i := 0; i < 4; i++ {
			if i != iso1 {
				others[no] = i
				no++
			}
		}
		a := ev(iso1, others[0])
		bb := ev(iso1, others[1])
		c := ev(iso1, others[2])
		ref := iso1
		if !inside[iso1] {
			ref = others[0]
		}
		addTri(a, bb, c, ref)
	case 2:
		// Two in, two out: quad split into two triangles.
		var in2, out2 [2]int
		ni, no := 0, 0
		for i := 0; i < 4; i++ {
			if inside[i] {
				in2[ni] = i
				ni++
			} else {
				out2[no] = i
				no++
			}
		}
		q0 := ev(in2[0], out2[0])
		q1 := ev(in2[0], out2[1])
		q2 := ev(in2[1], out2[1])
		q3 := ev(in2[1], out2[0])
		addTri(q0, q1, q2, in2[0])
		addTri(q0, q2, q3, in2[0])
	}
}

// emptySurface returns an empty PolyData carrying the source's point-data
// field headers — the shape every marching sweep output shares.
func emptySurface(src data.Dataset) (*data.PolyData, []*data.Field) {
	out := data.NewPolyData()
	pd := src.PointData()
	fields := make([]*data.Field, pd.Len())
	for i := range fields {
		f := pd.At(i)
		nf := data.NewField(f.Name, f.NumComponents, 0)
		fields[i] = nf
		out.Points.Add(nf)
	}
	return out, fields
}

// absorb merges one chunk builder into the accumulator g, deduplicating
// edge vertices across chunk boundaries by their canonical keys. Chunk
// builders must be absorbed in chunk index order; because chunks cover
// the tetrahedron sweep in order and each vertex keeps the value
// computed from its canonical edge orientation, the accumulated point
// numbering, positions, attributes and triangle list are byte-identical
// to a serial sweep — for ANY chunking.
func (g *surfaceBuilder) absorb(b *surfaceBuilder) {
	if cap(g.remap) < len(b.pts) {
		g.remap = make([]int32, len(b.pts))
	}
	remap := g.remap[:len(b.pts)]
	for li, key := range b.keys {
		gid, added := g.edges.GetOrPut(key, int32(len(g.pts)))
		if added {
			g.pts = append(g.pts, b.pts[li])
			for fi, f := range g.srcFields {
				nc := f.NumComponents
				g.fdata[fi] = append(g.fdata[fi], b.fdata[fi][li*nc:(li+1)*nc]...)
			}
		}
		remap[li] = gid
	}
	for t := 0; t+2 < len(b.tris); t += 3 {
		g.tris = append(g.tris, remap[b.tris[t]], remap[b.tris[t+1]], remap[b.tris[t+2]])
	}
}

// materialize copies the accumulated mesh into a fresh exact-capacity
// PolyData (never a view of arena memory), so the accumulator can be
// recycled as soon as it returns.
func (g *surfaceBuilder) materialize(src data.Dataset) *data.PolyData {
	out, outFields := emptySurface(src)
	out.Pts = append(make([]vmath.Vec3, 0, len(g.pts)), g.pts...)
	for fi, nf := range outFields {
		nf.Data = append(make([]float64, 0, len(g.fdata[fi])), g.fdata[fi]...)
	}
	out.Polys = make([][]int, 0, len(g.tris)/3)
	out.ReserveConn(len(g.tris))
	for t := 0; t+2 < len(g.tris); t += 3 {
		out.AddTriangle(int(g.tris[t]), int(g.tris[t+1]), int(g.tris[t+2]))
	}
	return out
}

// marchSurface runs the marching-tetrahedra sweep over the dataset's
// cells as a pipelined ordered sweep: chunks of cells, each decomposed
// into tets, fill arena-pooled builders in parallel while a single
// consumer absorbs them into an accumulator in chunk index order as they
// complete — the merge overlaps the sweep instead of waiting for a
// barrier, with identical output. op names the filter in errors.
func marchSurface(ctx context.Context, op string, ds data.Dataset, level func(int) float64, iso float64) (*data.PolyData, error) {
	nCells, ok := cellCount(ds)
	if !ok {
		return nil, fmt.Errorf("filters: %s: unsupported dataset type %s", op, ds.TypeName())
	}
	gb := surfaceArena.Get()
	defer surfaceArena.Put(gb)
	gb.bind(ds)
	err := par.OrderedSweep(ctx, nCells, surfaceArena, func(b *surfaceBuilder, start, end int) {
		b.bind(ds)
		forCells(ds, start, end, func(c data.Cell) {
			b.tets = CellTets(c, b.tets[:0])
			for _, t := range b.tets {
				b.marchTet(t, level, iso)
			}
		})
	}, func(b *surfaceBuilder) { gb.absorb(b) })
	if err != nil {
		return nil, err
	}
	return gb.materialize(ds), nil
}

// Contour extracts the isosurface of the named scalar field at the given
// value. Supported inputs: *data.ImageData and *data.UnstructuredGrid.
// Matches VTK's Contour filter output: a PolyData with all point-data
// arrays interpolated onto the surface.
func Contour(ds data.Dataset, fieldName string, value float64) (*data.PolyData, error) {
	return ContourContext(context.Background(), ds, fieldName, value)
}

// ContourContext is Contour with cancellation: the marching sweep runs in
// parallel chunks on the par worker pool and aborts early when ctx is
// canceled.
func ContourContext(ctx context.Context, ds data.Dataset, fieldName string, value float64) (*data.PolyData, error) {
	f := ds.PointData().Get(fieldName)
	if f == nil {
		return nil, fmt.Errorf("filters: contour: no point array named %q", fieldName)
	}
	if f.NumComponents != 1 {
		return nil, fmt.Errorf("filters: contour: array %q is not a scalar", fieldName)
	}
	return marchSurface(ctx, "contour", ds, func(i int) float64 { return f.Scalar(i) }, value)
}

// ContourLines extracts iso-lines of a scalar field on a triangulated
// surface (marching triangles). It is the second stage of the paper's
// slice-then-contour pipeline.
func ContourLines(pd *data.PolyData, fieldName string, value float64) (*data.PolyData, error) {
	f := pd.Points.Get(fieldName)
	if f == nil {
		return nil, fmt.Errorf("filters: contour lines: no point array named %q", fieldName)
	}
	if f.NumComponents != 1 {
		return nil, fmt.Errorf("filters: contour lines: array %q is not a scalar", fieldName)
	}
	out := data.NewPolyData()
	var outFields []*data.Field
	var srcFields []*data.Field
	for i := 0; i < pd.Points.Len(); i++ {
		sf := pd.Points.At(i)
		nf := data.NewField(sf.Name, sf.NumComponents, 0)
		srcFields = append(srcFields, sf)
		outFields = append(outFields, nf)
		out.Points.Add(nf)
	}
	edgeVerts := data.NewPairTable()
	edgeVertex := func(i, j int, t float64) int {
		key := data.PackPair(i, j)
		if j < i {
			t = 1 - t // parameter follows the canonical orientation
		}
		id, added := edgeVerts.GetOrPut(key, int32(len(out.Pts)))
		if !added {
			return int(id)
		}
		lo, hi := data.UnpackPair(key)
		out.AddPoint(pd.Pts[lo].Lerp(pd.Pts[hi], t))
		for fi, sf := range srcFields {
			nf := outFields[fi]
			for c := 0; c < sf.NumComponents; c++ {
				v0, v1 := sf.Value(lo, c), sf.Value(hi, c)
				nf.Data = append(nf.Data, v0+t*(v1-v0))
			}
		}
		return int(id)
	}
	pd.EachTriangle(func(a, b, c int) {
		ids := [3]int{a, b, c}
		var vals [3]float64
		var in [3]bool
		nIn := 0
		for i, id := range ids {
			vals[i] = f.Scalar(id)
			if vals[i] >= value {
				in[i] = true
				nIn++
			}
		}
		if nIn == 0 || nIn == 3 {
			return
		}
		cross := func(vA, vB float64) float64 {
			d := vB - vA
			if d == 0 {
				return 0.5
			}
			return (value - vA) / d
		}
		// Find the isolated vertex and connect crossings on its two edges.
		isolated := -1
		want := nIn == 1
		for i := 0; i < 3; i++ {
			if in[i] == want {
				isolated = i
				break
			}
		}
		o1, o2 := (isolated+1)%3, (isolated+2)%3
		p1 := edgeVertex(ids[isolated], ids[o1], cross(vals[isolated], vals[o1]))
		p2 := edgeVertex(ids[isolated], ids[o2], cross(vals[isolated], vals[o2]))
		if p1 != p2 {
			out.AddLine(p1, p2)
		}
	})
	return out, nil
}

// Slice cuts the dataset with a plane and returns the triangulated cross
// section with all point data interpolated, like VTK's Slice filter with a
// plane cut function.
func Slice(ds data.Dataset, plane vmath.Plane) (*data.PolyData, error) {
	return SliceContext(context.Background(), ds, plane)
}

// SliceContext is Slice with cancellation; the marching sweep runs in
// parallel chunks on the par worker pool.
func SliceContext(ctx context.Context, ds data.Dataset, plane vmath.Plane) (*data.PolyData, error) {
	return marchSurface(ctx, "slice", ds, func(i int) float64 { return plane.Eval(ds.Point(i)) }, 0)
}
