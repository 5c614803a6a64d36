package filters

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"chatvis/internal/data"
	"chatvis/internal/datagen"
	"chatvis/internal/vmath"
)

func TestClipPolyDataHalfSphere(t *testing.T) {
	im := sphereVolume(20)
	surf, err := Contour(im, "dist", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Keep -x half: plane normal -x.
	plane := vmath.NewPlane(vmath.V(0, 0, 0), vmath.V(-1, 0, 0))
	clipped := ClipPolyData(surf, plane)
	if clipped.NumTriangles() == 0 {
		t.Fatal("empty clip result")
	}
	for _, p := range clipped.Pts {
		if p.X > 1e-9 {
			t.Fatalf("point on removed side: %v", p)
		}
	}
	// Roughly half the area should remain.
	area := func(pd *data.PolyData) float64 {
		a := 0.0
		pd.EachTriangle(func(x, y, z int) {
			a += pd.Pts[y].Sub(pd.Pts[x]).Cross(pd.Pts[z].Sub(pd.Pts[x])).Len() / 2
		})
		return a
	}
	full, half := area(surf), area(clipped)
	if math.Abs(half-full/2)/full > 0.05 {
		t.Errorf("clipped area = %v of %v, want ~half", half, full)
	}
	// Point data interpolated on the cut.
	f := clipped.Points.Get("dist")
	if f == nil || f.NumTuples() != clipped.NumPoints() {
		t.Fatal("dist field missing/mismatched after clip")
	}
}

func TestClipPolyDataKeepsUntouchedTriangles(t *testing.T) {
	pd := data.NewPolyData()
	pd.AddPoint(vmath.V(1, 0, 0))
	pd.AddPoint(vmath.V(2, 0, 0))
	pd.AddPoint(vmath.V(1, 1, 0))
	pd.AddTriangle(0, 1, 2)
	plane := vmath.NewPlane(vmath.V(0, 0, 0), vmath.V(1, 0, 0))
	out := ClipPolyData(pd, plane)
	if out.NumTriangles() != 1 || out.NumPoints() != 3 {
		t.Errorf("fully-inside triangle should be kept intact: %d tris %d pts",
			out.NumTriangles(), out.NumPoints())
	}
	// And fully outside vanishes.
	plane2 := vmath.NewPlane(vmath.V(5, 0, 0), vmath.V(1, 0, 0))
	out2 := ClipPolyData(pd, plane2)
	if out2.NumTriangles() != 0 || out2.NumPoints() != 0 {
		t.Error("fully-outside triangle should vanish")
	}
}

func TestClipPolyDataLinesAndVerts(t *testing.T) {
	pd := data.NewPolyData()
	a := pd.AddPoint(vmath.V(-1, 0, 0))
	b := pd.AddPoint(vmath.V(1, 0, 0))
	c := pd.AddPoint(vmath.V(3, 0, 0))
	pd.AddLine(a, b, c)
	pd.AddVert(a)
	pd.AddVert(b)
	f := data.NewField("s", 1, 3)
	f.Data = []float64{-1, 1, 3}
	pd.Points.Add(f)
	plane := vmath.NewPlane(vmath.V(0, 0, 0), vmath.V(1, 0, 0)) // keep +x
	out := ClipPolyData(pd, plane)
	if len(out.Lines) != 1 {
		t.Fatalf("lines = %d", len(out.Lines))
	}
	line := out.Lines[0]
	if len(line) != 3 {
		t.Fatalf("clipped line has %d points", len(line))
	}
	if out.Pts[line[0]].X != 0 {
		t.Errorf("cut point at %v, want x=0", out.Pts[line[0]])
	}
	if got := out.Points.Get("s").Scalar(line[0]); math.Abs(got) > 1e-12 {
		t.Errorf("interpolated s at cut = %v, want 0", got)
	}
	if len(out.Verts) != 1 {
		t.Errorf("verts = %d, want 1 (only +x vertex kept)", len(out.Verts))
	}
}

func TestClipUnstructuredVolumeConservation(t *testing.T) {
	// Clip a cube mesh at x=0.5: kept tets should sum to half the volume.
	ug := data.NewUnstructuredGrid()
	for i := 0; i < 8; i++ {
		corners := [][3]float64{
			{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0},
			{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1},
		}
		ug.AddPoint(vmath.V(corners[i][0], corners[i][1], corners[i][2]))
	}
	ug.AddCell(data.CellHexahedron, 0, 1, 2, 3, 4, 5, 6, 7)
	f := data.NewField("s", 1, 8)
	for i := 0; i < 8; i++ {
		f.SetScalar(i, ug.Pts[i].X)
	}
	ug.Points.Add(f)

	totalVol := func(g *data.UnstructuredGrid) float64 {
		v := 0.0
		for _, tt := range GridTets(g) {
			v += math.Abs(TetVolume(g.Pts[tt[0]], g.Pts[tt[1]], g.Pts[tt[2]], g.Pts[tt[3]]))
		}
		return v
	}
	prop := func(raw float64) bool {
		cut := 0.1 + math.Mod(math.Abs(raw), 0.8)
		plane := vmath.NewPlane(vmath.V(cut, 0, 0), vmath.V(-1, 0, 0)) // keep x < cut
		clipped, err := ClipUnstructured(ug, plane)
		if err != nil {
			return false
		}
		for _, p := range clipped.Pts {
			if p.X > cut+1e-9 {
				return false
			}
		}
		return math.Abs(totalVol(clipped)-cut) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
	// Field interpolation on the cut plane: s == x everywhere, so cut
	// points must carry s == cut value.
	plane := vmath.NewPlane(vmath.V(0.5, 0, 0), vmath.V(-1, 0, 0))
	clipped, err := ClipUnstructured(ug, plane)
	if err != nil {
		t.Fatal(err)
	}
	sf := clipped.Points.Get("s")
	for i, p := range clipped.Pts {
		if math.Abs(sf.Scalar(i)-p.X) > 1e-9 {
			t.Fatalf("s=%v at x=%v", sf.Scalar(i), p.X)
		}
	}
}

func TestClipUnstructuredRejectsNonVolumetric(t *testing.T) {
	ug := data.NewUnstructuredGrid()
	ug.AddPoint(vmath.V(0, 0, 0))
	ug.AddCell(data.CellVertex, 0)
	if _, err := ClipUnstructured(ug, vmath.NewPlane(vmath.V(0, 0, 0), vmath.V(1, 0, 0))); err == nil {
		t.Error("expected error for non-volumetric input")
	}
}

func TestExtractSurfaceCube(t *testing.T) {
	ug := data.NewUnstructuredGrid()
	corners := [][3]float64{
		{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0},
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1},
	}
	for _, c := range corners {
		ug.AddPoint(vmath.V(c[0], c[1], c[2]))
	}
	ug.AddCell(data.CellHexahedron, 0, 1, 2, 3, 4, 5, 6, 7)
	f := data.NewField("s", 1, 8)
	ug.Points.Add(f)
	surf := ExtractSurface(ug)
	// 6 cube faces, each split into 2 triangles = 12 boundary triangles.
	if surf.NumTriangles() != 12 {
		t.Errorf("boundary triangles = %d, want 12", surf.NumTriangles())
	}
	if surf.NumPoints() != 8 {
		t.Errorf("surface points = %d, want 8", surf.NumPoints())
	}
	if surf.Points.Get("s") == nil {
		t.Error("point data not carried to surface")
	}
	// Surface area of unit cube = 6.
	area := 0.0
	surf.EachTriangle(func(a, b, c int) {
		area += surf.Pts[b].Sub(surf.Pts[a]).Cross(surf.Pts[c].Sub(surf.Pts[a])).Len() / 2
	})
	if math.Abs(area-6) > 1e-12 {
		t.Errorf("surface area = %v, want 6", area)
	}
}

func TestExtractSurfacePreservesVertices(t *testing.T) {
	ug := datagen.CanPoints(16, 8)
	surf := ExtractSurface(ug)
	if len(surf.Verts) != ug.NumPoints() {
		t.Errorf("verts = %d, want %d", len(surf.Verts), ug.NumPoints())
	}
}

// referenceExtractSurface is the map-based surface extraction the
// map-free ExtractSurface replaced, kept as its test oracle: faces are
// counted in a map keyed by sorted ids, and the faces seen once are
// sorted by winding.
func referenceExtractSurface(ug *data.UnstructuredGrid) *data.PolyData {
	tets := GridTets(ug)
	type face struct{ a, b, c int }
	canon := func(a, b, c int) face {
		v := []int{a, b, c}
		sort.Ints(v)
		return face{v[0], v[1], v[2]}
	}
	count := make(map[face]int)
	order := make(map[face][3]int) // original winding of first occurrence
	for _, t := range tets {
		fs := [4][3]int{
			{t[0], t[1], t[2]},
			{t[0], t[1], t[3]},
			{t[0], t[2], t[3]},
			{t[1], t[2], t[3]},
		}
		for _, f := range fs {
			k := canon(f[0], f[1], f[2])
			if count[k] == 0 {
				order[k] = f
			}
			count[k]++
		}
	}
	out := data.NewPolyData()
	var srcFields, outFields []*data.Field
	for i := 0; i < ug.Points.Len(); i++ {
		f := ug.Points.At(i)
		nf := data.NewField(f.Name, f.NumComponents, 0)
		srcFields = append(srcFields, f)
		outFields = append(outFields, nf)
		out.Points.Add(nf)
	}
	remap := make(map[int]int)
	mapPoint := func(i int) int {
		if id, ok := remap[i]; ok {
			return id
		}
		id := out.AddPoint(ug.Pts[i])
		for fi, f := range srcFields {
			nf := outFields[fi]
			for c := 0; c < f.NumComponents; c++ {
				nf.Data = append(nf.Data, f.Value(i, c))
			}
		}
		remap[i] = id
		return id
	}
	// Deterministic iteration: collect and sort boundary faces.
	var boundary [][3]int
	for k, n := range count {
		if n == 1 {
			boundary = append(boundary, order[k])
		}
	}
	sort.Slice(boundary, func(i, j int) bool {
		a, b := boundary[i], boundary[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
	for _, f := range boundary {
		out.AddTriangle(mapPoint(f[0]), mapPoint(f[1]), mapPoint(f[2]))
	}
	for _, c := range ug.Cells {
		if c.Type == data.CellVertex && len(c.IDs) == 1 {
			out.AddVert(mapPoint(c.IDs[0]))
		}
	}
	return out
}

// sameSurface fails the test unless got and want have the same points,
// point data, triangles (order and winding) and vertices.
func sameSurface(t *testing.T, name string, got, want *data.PolyData) {
	t.Helper()
	sameConn := func(a, b [][]int) bool { return slices.EqualFunc(a, b, slices.Equal[[]int]) }
	switch {
	case !slices.Equal(got.Pts, want.Pts):
		t.Fatalf("%s: points differ (%d vs %d)", name, len(got.Pts), len(want.Pts))
	case !sameConn(got.Polys, want.Polys):
		t.Fatalf("%s: triangles differ (%d vs %d)", name, len(got.Polys), len(want.Polys))
	case !sameConn(got.Verts, want.Verts):
		t.Fatalf("%s: vertices differ (%d vs %d)", name, len(got.Verts), len(want.Verts))
	case len(got.Lines) != 0 || got.CellD.Len() != 0:
		t.Fatalf("%s: unexpected lines or cell data", name)
	case !slices.Equal(got.Points.Names(), want.Points.Names()):
		t.Fatalf("%s: point arrays %v, want %v", name, got.Points.Names(), want.Points.Names())
	}
	for i := 0; i < want.Points.Len(); i++ {
		g, w := got.Points.At(i), want.Points.At(i)
		if g.NumComponents != w.NumComponents || !slices.Equal(g.Data, w.Data) {
			t.Fatalf("%s: point array %q differs", name, w.Name)
		}
	}
}

// gridOf builds an unstructured grid over pts with the given cells and
// two point arrays (a scalar and a 3-vector) that identify each point.
func gridOf(pts []vmath.Vec3, cells ...data.Cell) *data.UnstructuredGrid {
	ug := data.NewUnstructuredGrid()
	ug.Pts = pts
	ug.Cells = cells
	s := data.NewField("s", 1, len(pts))
	v := data.NewField("v", 3, len(pts))
	for i, p := range pts {
		s.SetScalar(i, float64(i))
		v.SetVec3(i, p)
	}
	ug.Points.Add(s)
	ug.Points.Add(v)
	return ug
}

// latticePoints returns the n*n*n points of a unit lattice, x fastest.
func latticePoints(n int) []vmath.Vec3 {
	var pts []vmath.Vec3
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				pts = append(pts, vmath.V(float64(i), float64(j), float64(k)))
			}
		}
	}
	return pts
}

func cell(t data.CellType, ids ...int) data.Cell { return data.Cell{Type: t, IDs: ids} }

// TestExtractSurfaceMatchesReference: the map-free kernel produces
// exactly the reference's surface on every supported cell type,
// repeated faces, point clouds, degenerate grids and the DataSmall
// filter outputs the renderer extracts surfaces from.
func TestExtractSurfaceMatchesReference(t *testing.T) {
	pts := latticePoints(3) // id = i + 3j + 9k
	hex := []int{0, 1, 4, 3, 9, 10, 13, 12}
	hex2 := []int{1, 2, 5, 4, 10, 11, 14, 13}
	vox := []int{0, 1, 3, 4, 9, 10, 12, 13}
	vox2 := []int{1, 2, 4, 5, 10, 11, 13, 14}
	cases := map[string]*data.UnstructuredGrid{
		"tetra":      gridOf(pts, cell(data.CellTetra, 0, 1, 3, 9), cell(data.CellTetra, 1, 3, 9, 13)),
		"voxel":      gridOf(pts, cell(data.CellVoxel, vox...), cell(data.CellVoxel, vox2...)),
		"hexahedron": gridOf(pts, cell(data.CellHexahedron, hex...), cell(data.CellHexahedron, hex2...)),
		"wedge":      gridOf(pts, cell(data.CellWedge, 0, 1, 3, 9, 10, 12), cell(data.CellWedge, 1, 4, 3, 10, 13, 12)),
		"pyramid":    gridOf(pts, cell(data.CellPyramid, 0, 1, 4, 3, 9), cell(data.CellPyramid, 1, 4, 3, 0, 13)),
		"mixed": gridOf(pts, cell(data.CellHexahedron, hex...), cell(data.CellVoxel, vox2...),
			cell(data.CellTetra, 3, 4, 6, 12), cell(data.CellWedge, 12, 13, 15, 21, 22, 24),
			cell(data.CellPyramid, 9, 10, 13, 12, 18), cell(data.CellTriangle, 0, 1, 2)),
		"face thrice": gridOf(pts, cell(data.CellTetra, 0, 1, 3, 9),
			cell(data.CellTetra, 3, 1, 0, 10), cell(data.CellTetra, 0, 3, 1, 12)),
		"cell thrice": gridOf(pts, cell(data.CellHexahedron, hex...),
			cell(data.CellHexahedron, hex...), cell(data.CellHexahedron, hex...)),
		"cell twice plus one": gridOf(pts, cell(data.CellVoxel, vox...),
			cell(data.CellVoxel, vox...), cell(data.CellVoxel, vox2...)),
		"degenerate tet":  gridOf(pts, cell(data.CellTetra, 0, 0, 1, 3), cell(data.CellTetra, 4, 4, 4, 4)),
		"vertices":        gridOf(pts, cell(data.CellVertex, 5), cell(data.CellVertex, 26), cell(data.CellVertex, 5)),
		"vertices shared": gridOf(pts, cell(data.CellVertex, 13), cell(data.CellTetra, 13, 1, 3, 9), cell(data.CellVertex, 26)),
		"unreferenced":    gridOf(pts, cell(data.CellTetra, 26, 17, 25, 23)),
		"no cells":        gridOf(pts),
		"empty":           data.NewUnstructuredGrid(),
		"can points":      datagen.CanPoints(16, 8),
	}
	clip, err := ClipUnstructured(ImageToGrid(datagen.MarschnerLobb(24)),
		vmath.NewPlane(vmath.V(0, 0, 0), vmath.V(-1, 0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	cases["DataSmall clip"] = clip
	threshold, err := Threshold(datagen.DiskFlow(6, 24, 6), "Temp", 500, 900, ThresholdAllPoints)
	if err != nil {
		t.Fatal(err)
	}
	cases["DataSmall threshold"] = threshold
	delaunay, err := Delaunay3D(datagen.CanPoints(24, 10))
	if err != nil {
		t.Fatal(err)
	}
	cases["DataSmall delaunay"] = delaunay
	cases["DataSmall disk"] = datagen.DiskFlow(6, 24, 6)
	for name, ug := range cases {
		want := referenceExtractSurface(ug)
		if strings.HasPrefix(name, "DataSmall") && want.NumTriangles() == 0 {
			t.Fatalf("%s: reference surface is empty", name)
		}
		sameSurface(t, name, ExtractSurface(ug), want)
	}
}

// fuzzGrid decodes bytes into a valid grid over at most 12 lattice
// points: the first byte sets the point count, then each cell is a
// type byte followed by one byte per corner id (mod the point count).
// Type bytes cycle through vertex, the five volumetric types and a
// triangle (which the surface ignores).
func fuzzGrid(b []byte) *data.UnstructuredGrid {
	if len(b) == 0 {
		return gridOf(nil)
	}
	pts := latticePoints(3)[:1+int(b[0])%12]
	types := []data.CellType{data.CellVertex, data.CellTetra, data.CellVoxel,
		data.CellHexahedron, data.CellWedge, data.CellPyramid, data.CellTriangle}
	var cells []data.Cell
	for b = b[1:]; len(b) > 0; {
		ct := types[int(b[0])%len(types)]
		n := ct.NumCorners()
		if len(b) < 1+n {
			break
		}
		ids := make([]int, n)
		for i := range ids {
			ids[i] = int(b[1+i]) % len(pts)
		}
		cells = append(cells, cell(ct, ids...))
		b = b[1+n:]
	}
	return gridOf(pts, cells...)
}

// FuzzExtractSurface: on arbitrary valid cells over a small point set
// (so faces repeat often), the kernel never panics and matches the
// reference exactly.
func FuzzExtractSurface(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 1, 0, 1, 2, 3})
	f.Add([]byte{11, 3, 0, 1, 3, 2, 4, 5, 7, 6, 2, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{5, 1, 0, 1, 2, 3, 1, 3, 2, 1, 4, 1, 1, 2, 0, 4})
	f.Add([]byte{9, 4, 0, 1, 2, 3, 4, 5, 5, 0, 1, 2, 3, 4, 0, 8, 6, 1, 2, 3})
	f.Add([]byte{3, 1, 0, 0, 1, 2, 1, 2, 2, 2, 2, 0, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		ug := fuzzGrid(b)
		sameSurface(t, "fuzz", ExtractSurface(ug), referenceExtractSurface(ug))
	})
}

func TestComputePointNormals(t *testing.T) {
	im := sphereVolume(16)
	surf, err := Contour(im, "dist", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ComputePointNormals(surf)
	nf := surf.Points.Get("Normals")
	if nf == nil || nf.NumComponents != 3 {
		t.Fatal("Normals missing")
	}
	// Sphere normals should be (anti)radial and unit length.
	aligned := 0
	for i, p := range surf.Pts {
		n := nf.Vec3(i)
		if math.Abs(n.Len()-1) > 1e-6 {
			t.Fatalf("normal %d not unit: %v", i, n.Len())
		}
		if math.Abs(math.Abs(n.Dot(p.Norm()))-1) < 0.1 {
			aligned++
		}
	}
	if float64(aligned)/float64(len(surf.Pts)) < 0.9 {
		t.Errorf("only %d/%d normals near-radial", aligned, len(surf.Pts))
	}
}
