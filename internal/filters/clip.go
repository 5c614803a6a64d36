package filters

import (
	"context"
	"fmt"

	"chatvis/internal/data"
	"chatvis/internal/par"
	"chatvis/internal/vmath"
)

// clipSet accumulates clip output points identified by canonical packed
// keys: a kept source point i is PackPair(i,i); a cut edge (i,j) is
// PackPair(min,max). Values are always computed from the canonical edge
// orientation, so chunk-local sets merge into exactly the numbering a
// serial sweep produces.
//
// Everything is struct-of-arrays over flat slabs (points, packed keys,
// interleaved attribute data, int32 cell connectivity) and the whole set
// is arena-pooled: checked out per chunk (and once for the global merge
// set), recycled when the filter returns.
type clipSet struct {
	srcPts    []vmath.Vec3
	srcFields []*data.Field
	plane     vmath.Plane

	pts   []vmath.Vec3
	keys  []uint64
	fdata [][]float64 // interleaved output data, parallel to srcFields
	index *data.PairTable

	// Chunk cell output. conn/lens hold variable-length polygons
	// (PolyData path); cells holds tetrahedra, 4 ids per cell
	// (UnstructuredGrid path).
	conn  []int32
	lens  []int32
	cells []int32

	remapBuf []int32 // absorb scratch (used on the global set only)
}

// Reset implements par.Resetter: empty every slab, keep every capacity.
func (cp *clipSet) Reset() {
	cp.srcPts = nil
	cp.srcFields = cp.srcFields[:0]
	cp.pts = cp.pts[:0]
	cp.keys = cp.keys[:0]
	for i := range cp.fdata {
		cp.fdata[i] = cp.fdata[i][:0]
	}
	cp.fdata = cp.fdata[:0]
	cp.index.Reset()
	cp.conn = cp.conn[:0]
	cp.lens = cp.lens[:0]
	cp.cells = cp.cells[:0]
	cp.remapBuf = cp.remapBuf[:0]
}

func (cp *clipSet) bind(srcPts []vmath.Vec3, fs *data.FieldSet, plane vmath.Plane) {
	cp.srcPts = srcPts
	cp.plane = plane
	n := fs.Len()
	for i := 0; i < n; i++ {
		cp.srcFields = append(cp.srcFields, fs.At(i))
	}
	if cap(cp.fdata) < n {
		cp.fdata = append(cp.fdata[:cap(cp.fdata)], make([][]float64, n-cap(cp.fdata))...)
	}
	cp.fdata = cp.fdata[:n]
	for i := range cp.fdata {
		cp.fdata[i] = cp.fdata[i][:0]
	}
}

var clipArena = par.NewArena(func() *clipSet {
	return &clipSet{index: data.NewPairTable()}
})

// keep returns the output id of source point i, copying it on first use.
func (cp *clipSet) keep(i int) int32 {
	key := data.PackPair(i, i)
	id, added := cp.index.GetOrPut(key, int32(len(cp.pts)))
	if !added {
		return id
	}
	cp.pts = append(cp.pts, cp.srcPts[i])
	cp.keys = append(cp.keys, key)
	for fi, f := range cp.srcFields {
		d := cp.fdata[fi]
		for c := 0; c < f.NumComponents; c++ {
			d = append(d, f.Value(i, c))
		}
		cp.fdata[fi] = d
	}
	return id
}

// cut returns the output id of the plane crossing on edge (i,j),
// interpolating it on first use.
func (cp *clipSet) cut(i, j int) int32 {
	key := data.PackPair(i, j)
	id, added := cp.index.GetOrPut(key, int32(len(cp.pts)))
	if !added {
		return id
	}
	lo, hi := data.UnpackPair(key)
	di := cp.plane.Eval(cp.srcPts[lo])
	dj := cp.plane.Eval(cp.srcPts[hi])
	t := 0.5
	if di != dj {
		t = di / (di - dj)
	}
	cp.pts = append(cp.pts, cp.srcPts[lo].Lerp(cp.srcPts[hi], t))
	cp.keys = append(cp.keys, key)
	for fi, f := range cp.srcFields {
		d := cp.fdata[fi]
		for c := 0; c < f.NumComponents; c++ {
			v0, v1 := f.Value(lo, c), f.Value(hi, c)
			d = append(d, v0+t*(v1-v0))
		}
		cp.fdata[fi] = d
	}
	return id
}

// absorb merges a chunk-local point set into cp (in the chunk's creation
// order) and returns the local→global id remap, valid until the next
// absorb. First use wins, exactly as in a serial sweep.
func (cp *clipSet) absorb(ch *clipSet) []int32 {
	if cap(cp.remapBuf) < len(ch.pts) {
		cp.remapBuf = make([]int32, len(ch.pts))
	}
	remap := cp.remapBuf[:len(ch.pts)]
	for li, key := range ch.keys {
		gid, added := cp.index.GetOrPut(key, int32(len(cp.pts)))
		if added {
			cp.pts = append(cp.pts, ch.pts[li])
			cp.keys = append(cp.keys, key)
			for fi := range cp.fdata {
				nc := cp.srcFields[fi].NumComponents
				cp.fdata[fi] = append(cp.fdata[fi], ch.fdata[fi][li*nc:(li+1)*nc]...)
			}
		}
		remap[li] = gid
	}
	return remap
}

// copyOutPoints materializes the set's points and interpolated fields as
// exact-size arrays on a fresh output (never views of arena memory).
func (cp *clipSet) copyOutPoints(setPts *[]vmath.Vec3, fs *data.FieldSet) {
	*setPts = append(make([]vmath.Vec3, 0, len(cp.pts)), cp.pts...)
	for fi, f := range cp.srcFields {
		nf := data.NewField(f.Name, f.NumComponents, 0)
		nf.Data = append(make([]float64, 0, len(cp.fdata[fi])), cp.fdata[fi]...)
		fs.Add(nf)
	}
}

// planeDistances evaluates the plane at every point, in parallel.
func planeDistances(ctx context.Context, pts []vmath.Vec3, plane vmath.Plane) ([]float64, error) {
	dist := make([]float64, len(pts))
	err := par.For(ctx, len(pts), func(start, end int) {
		for i := start; i < end; i++ {
			dist[i] = plane.Eval(pts[i])
		}
	})
	if err != nil {
		return nil, err
	}
	return dist, nil
}

// ClipPolyData clips a triangulated surface with a plane, keeping the side
// the normal points to (VTK keeps the positive side; pass InsideOut
// semantics by flipping the plane normal). Point data is interpolated on
// cut edges. Polylines and vertices are clipped as well.
func ClipPolyData(pd *data.PolyData, plane vmath.Plane) *data.PolyData {
	out, _ := ClipPolyDataContext(context.Background(), pd, plane)
	return out
}

// ClipPolyDataContext is ClipPolyData with cancellation; the triangle
// sweep runs in parallel chunks with a deterministic merge.
func ClipPolyDataContext(ctx context.Context, pd *data.PolyData, plane vmath.Plane) (*data.PolyData, error) {
	dist, err := planeDistances(ctx, pd.Pts, plane)
	if err != nil {
		return nil, err
	}

	global := clipArena.Get()
	defer clipArena.Put(global)
	global.bind(pd.Pts, pd.Points, plane)

	// Triangles: Sutherland–Hodgman against a single plane yields a
	// triangle or quad. Chunks cover disjoint polygon ranges (fan
	// triangulated in place — the sweep order matches EachTriangle), each
	// clipping into an arena-pooled local point set; a pipelined ordered
	// merge absorbs completed chunks into the global set in sweep order
	// while later chunks still run.
	err = par.OrderedSweep(ctx, len(pd.Polys), clipArena, func(set *clipSet, start, end int) {
		set.bind(pd.Pts, pd.Points, plane)
		var poly [4]int32 // one plane cuts a triangle into at most a quad
		for _, pg := range pd.Polys[start:end] {
			for ti := 2; ti < len(pg); ti++ {
				tri := [3]int{pg[0], pg[ti-1], pg[ti]}
				np := 0
				for e := 0; e < 3; e++ {
					i, j := tri[e], tri[(e+1)%3]
					if dist[i] >= 0 {
						poly[np] = set.keep(i)
						np++
						if dist[j] < 0 {
							poly[np] = set.cut(i, j)
							np++
						}
					} else if dist[j] >= 0 {
						poly[np] = set.cut(i, j)
						np++
					}
				}
				if np >= 3 {
					set.lens = append(set.lens, int32(np))
					set.conn = append(set.conn, poly[:np]...)
				}
			}
		}
	}, func(ch *clipSet) {
		remap := global.absorb(ch)
		for _, id := range ch.conn {
			global.conn = append(global.conn, remap[id])
		}
		global.lens = append(global.lens, ch.lens...)
	})
	if err != nil {
		return nil, err
	}

	out := data.NewPolyData()
	out.Polys = make([][]int, 0, len(global.lens))
	out.ReserveConn(len(global.conn))
	off := 0
	for _, n := range global.lens {
		ids := out.NewPoly(int(n))
		for k := range ids {
			ids[k] = int(global.conn[off+k])
		}
		off += int(n)
	}

	// Polylines: break at crossings (serial — line work is negligible and
	// shares the global point set with the triangle phase).
	var run []int
	for _, line := range pd.Lines {
		run = run[:0]
		flush := func() {
			if len(run) >= 2 {
				copy(out.NewLine(len(run)), run)
			}
			run = run[:0]
		}
		for i := 0; i < len(line); i++ {
			id := line[i]
			if dist[id] >= 0 {
				if i > 0 && dist[line[i-1]] < 0 {
					run = append(run, int(global.cut(line[i-1], id)))
				}
				run = append(run, int(global.keep(id)))
			} else if i > 0 && dist[line[i-1]] >= 0 {
				run = append(run, int(global.cut(line[i-1], id)))
				flush()
			}
		}
		flush()
	}
	// Vertices: keep those on the positive side.
	for _, v := range pd.Verts {
		if len(v) == 1 && dist[v[0]] >= 0 {
			out.AddVert(int(global.keep(v[0])))
		}
	}
	global.copyOutPoints(&out.Pts, out.Points)
	return out, nil
}

// ImageToGrid converts an ImageData to an unstructured grid of voxel
// cells over the same points and point data (Clip's input for images).
func ImageToGrid(im *data.ImageData) *data.UnstructuredGrid {
	ug := data.NewUnstructuredGrid()
	for i := 0; i < im.NumPoints(); i++ {
		ug.AddPoint(im.Point(i))
	}
	ug.Points = im.Points.Clone()
	nx, ny, nz := im.Dims[0], im.Dims[1], im.Dims[2]
	for k := 0; k < nz-1; k++ {
		for j := 0; j < ny-1; j++ {
			for i := 0; i < nx-1; i++ {
				ug.AddCell(data.CellVoxel,
					im.Index(i, j, k), im.Index(i+1, j, k),
					im.Index(i, j+1, k), im.Index(i+1, j+1, k),
					im.Index(i, j, k+1), im.Index(i+1, j, k+1),
					im.Index(i, j+1, k+1), im.Index(i+1, j+1, k+1))
			}
		}
	}
	return ug
}

// ClipUnstructured clips a volumetric mesh with a plane, keeping the side
// the plane normal points to. All cells are decomposed into tetrahedra and
// each straddling tet is cut into sub-tetrahedra, as VTK's Clip does with
// its tetrahedral path. Point data is interpolated.
func ClipUnstructured(ug *data.UnstructuredGrid, plane vmath.Plane) (*data.UnstructuredGrid, error) {
	return ClipUnstructuredContext(context.Background(), ug, plane)
}

// ClipUnstructuredContext is ClipUnstructured with cancellation; the tet
// sweep runs in parallel chunks with a deterministic merge.
func ClipUnstructuredContext(ctx context.Context, ug *data.UnstructuredGrid, plane vmath.Plane) (*data.UnstructuredGrid, error) {
	tets := GridTets(ug)
	if len(tets) == 0 && len(ug.Cells) > 0 {
		return nil, fmt.Errorf("filters: clip: no volumetric cells to clip")
	}
	dist, err := planeDistances(ctx, ug.Pts, plane)
	if err != nil {
		return nil, err
	}
	global := clipArena.Get()
	defer clipArena.Put(global)
	global.bind(ug.Pts, ug.Points, plane)

	err = par.OrderedSweep(ctx, len(tets), clipArena, func(set *clipSet, start, end int) {
		set.bind(ug.Pts, ug.Points, plane)
		addTet := func(a, b, c, d int32) { set.cells = append(set.cells, a, b, c, d) }
		for _, t := range tets[start:end] {
			var in, outv [4]int // source ids on keep / discard side
			nIn, nOut := 0, 0
			for _, id := range t {
				if dist[id] >= 0 {
					in[nIn] = id
					nIn++
				} else {
					outv[nOut] = id
					nOut++
				}
			}
			switch nIn {
			case 0:
				// fully discarded
			case 4:
				addTet(set.keep(t[0]), set.keep(t[1]), set.keep(t[2]), set.keep(t[3]))
			case 1:
				// Tip tet: kept vertex plus three cut points.
				a := set.keep(in[0])
				p0 := set.cut(in[0], outv[0])
				p1 := set.cut(in[0], outv[1])
				p2 := set.cut(in[0], outv[2])
				addTet(a, p0, p1, p2)
			case 3:
				// Frustum: prism with kept triangle (b0,b1,b2) and cut triangle
				// (c0,c1,c2); split into three tets.
				b0, b1, b2 := set.keep(in[0]), set.keep(in[1]), set.keep(in[2])
				c0 := set.cut(in[0], outv[0])
				c1 := set.cut(in[1], outv[0])
				c2 := set.cut(in[2], outv[0])
				addTet(b0, b1, b2, c0)
				addTet(b1, b2, c0, c1)
				addTet(b2, c0, c1, c2)
			case 2:
				// Wedge with two kept vertices and four cut points.
				a0, a1 := set.keep(in[0]), set.keep(in[1])
				c00 := set.cut(in[0], outv[0])
				c01 := set.cut(in[0], outv[1])
				c10 := set.cut(in[1], outv[0])
				c11 := set.cut(in[1], outv[1])
				addTet(a0, a1, c00, c01)
				addTet(a1, c00, c01, c11)
				addTet(a1, c00, c10, c11)
			}
		}
	}, func(ch *clipSet) {
		remap := global.absorb(ch)
		for _, id := range ch.cells {
			global.cells = append(global.cells, remap[id])
		}
	})
	if err != nil {
		return nil, err
	}

	out := data.NewUnstructuredGrid()
	out.Cells = make([]data.Cell, 0, len(global.cells)/4)
	out.ReserveConn(len(global.cells))
	for c := 0; c+3 < len(global.cells); c += 4 {
		ids := out.NewCell(data.CellTetra, 4)
		ids[0] = int(global.cells[c])
		ids[1] = int(global.cells[c+1])
		ids[2] = int(global.cells[c+2])
		ids[3] = int(global.cells[c+3])
	}
	global.copyOutPoints(&out.Pts, out.Points)
	return out, nil
}

// ComputePointNormals adds (or replaces) a "Normals" point array on the
// surface: the area-weighted average of incident triangle normals,
// normalized. Rendering uses it for smooth shading.
func ComputePointNormals(pd *data.PolyData) {
	n := len(pd.Pts)
	acc := make([]vmath.Vec3, n)
	pd.EachTriangle(func(a, b, c int) {
		fn := pd.Pts[b].Sub(pd.Pts[a]).Cross(pd.Pts[c].Sub(pd.Pts[a]))
		acc[a] = acc[a].Add(fn)
		acc[b] = acc[b].Add(fn)
		acc[c] = acc[c].Add(fn)
	})
	f := data.NewField("Normals", 3, n)
	for i := range acc {
		f.SetVec3(i, acc[i].Norm())
	}
	pd.Points.Add(f)
}
