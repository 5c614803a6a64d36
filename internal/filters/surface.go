package filters

import (
	"slices"

	"chatvis/internal/data"
	"chatvis/internal/vmath"
)

// tetFaces lists the faces of a tet (t0,t1,t2,t3) as corner positions.
// A boundary triangle keeps the winding its face has here.
var tetFaces = [4][3]int{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}}

// faceWindings maps a face code (see faceKey) to the sorted position of
// each winding corner: corner j is sorted[faceWindings[code][j]].
var faceWindings = [6][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {2, 0, 1}, {1, 2, 0}, {2, 1, 0}}

// faceKey sorts the ids of face (a,b,c) into lo <= mid <= hi and packs
// mid, hi and a 3-bit winding code into one key. Every winding of a
// face has the same key>>3, and faceWinding restores the winding from
// the code. Ids must fit in 30 bits.
func faceKey(a, b, c int) (lo int, key uint64) {
	s := [3]int{a, b, c}
	p := [3]int{0, 1, 2} // p[k]: winding position of sorted id k
	if s[0] > s[1] {
		s[0], s[1], p[0], p[1] = s[1], s[0], p[1], p[0]
	}
	if s[1] > s[2] {
		s[1], s[2], p[1], p[2] = s[2], s[1], p[2], p[1]
	}
	if s[0] > s[1] {
		s[0], s[1], p[0], p[1] = s[1], s[0], p[1], p[0]
	}
	code := 2 * p[0]
	if p[1] > p[2] {
		code++
	}
	return s[0], uint64(s[1])<<33 | uint64(s[2])<<3 | uint64(code)
}

// faceWinding inverts faceKey.
func faceWinding(lo int, key uint64) [3]int {
	s := [3]int{lo, int(key >> 33), int(key>>3) & (1<<30 - 1)}
	w := faceWindings[key&7]
	return [3]int{s[w[0]], s[w[1]], s[w[2]]}
}

// eachTetFace calls fn with the ids of every face of every tet of ug's
// tetra decomposition, in cell order.
func eachTetFace(ug *data.UnstructuredGrid, fn func(a, b, c int)) {
	var tets [][4]int
	for _, c := range ug.Cells {
		tets = CellTets(c, tets[:0])
		for _, t := range tets {
			for _, f := range tetFaces {
				fn(t[f[0]], t[f[1]], t[f[2]])
			}
		}
	}
}

// ExtractSurface returns the boundary surface of a volumetric mesh: the
// faces that belong to exactly one cell (after tetra decomposition), as a
// triangulated PolyData with the original point data carried over. Vertex
// cells in the input (point clouds) are preserved as vertices.
//
// Triangles keep the winding of their tet face and come out sorted by
// that winding's ids; output points are numbered in order of first use
// by the triangles, then by the vertex cells.
//
// The kernel is map-free. A counting sort buckets every tet face by its
// smallest point id; sorting a bucket by the other two ids puts copies
// of a face side by side, and a face with no copy is on the boundary. A
// second counting sort, by first winding id, orders the boundary. Cell
// ids must index ug.Pts.
func ExtractSurface(ug *data.UnstructuredGrid) *data.PolyData {
	n := len(ug.Pts)

	// Bucket faces by smallest id: count into off[lo+2], prefix-sum, and
	// place with off[lo+1]++, which leaves bucket v at keys[off[v]:off[v+1]].
	off := make([]int32, n+2)
	eachTetFace(ug, func(a, b, c int) { off[min(a, b, c)+2]++ })
	for v := 1; v < len(off); v++ {
		off[v] += off[v-1]
	}
	keys := make([]uint64, off[n+1])
	eachTetFace(ug, func(a, b, c int) {
		lo, key := faceKey(a, b, c)
		keys[off[lo+1]] = key
		off[lo+1]++
	})

	// Keep faces that occur once. Each kept face's first id goes to
	// first[], its other two ids are packed into keys[nb] (nb never
	// passes the read position), and off is reused to count them by
	// first id.
	var first []int32
	nb := 0
	for v := 0; v < n; v++ {
		bucket := keys[off[v]:off[v+1]]
		slices.Sort(bucket)
		for i := 0; i < len(bucket); {
			j := i + 1
			for j < len(bucket) && bucket[j]>>3 == bucket[i]>>3 {
				j++
			}
			if j == i+1 {
				w := faceWinding(v, bucket[i])
				first = append(first, int32(w[0]))
				keys[nb] = uint64(w[1])<<32 | uint64(w[2])
				nb++
			}
			i = j
		}
	}
	clear(off)
	for _, w0 := range first {
		off[w0+2]++
	}
	for v := 1; v < len(off); v++ {
		off[v] += off[v-1]
	}
	sorted := make([]uint64, nb)
	for i, w0 := range first {
		sorted[off[w0+1]] = keys[i]
		off[w0+1]++
	}

	remap := make([]int32, n)
	for i := range remap {
		remap[i] = -1
	}
	var order []int32 // source id of each output point
	mapPoint := func(i int) int {
		if remap[i] < 0 {
			remap[i] = int32(len(order))
			order = append(order, int32(i))
		}
		return int(remap[i])
	}
	out := data.NewPolyData()
	out.Polys = make([][]int, 0, nb)
	out.ReserveConn(3 * nb)
	for v := 0; v < n; v++ {
		bucket := sorted[off[v]:off[v+1]]
		slices.Sort(bucket)
		for _, k := range bucket {
			ids := out.NewPoly(3)
			ids[0] = mapPoint(v)
			ids[1] = mapPoint(int(k >> 32))
			ids[2] = mapPoint(int(uint32(k)))
		}
	}
	for _, c := range ug.Cells {
		if c.Type == data.CellVertex && len(c.IDs) == 1 {
			out.AddVert(mapPoint(c.IDs[0]))
		}
	}

	out.Pts = make([]vmath.Vec3, len(order))
	for k, i := range order {
		out.Pts[k] = ug.Pts[i]
	}
	for fi := 0; fi < ug.Points.Len(); fi++ {
		f := ug.Points.At(fi)
		nc := f.NumComponents
		nf := data.NewField(f.Name, nc, len(order))
		for k, i := range order {
			copy(nf.Data[k*nc:(k+1)*nc], f.Data[int(i)*nc:(int(i)+1)*nc])
		}
		out.Points.Add(nf)
	}
	return out
}
