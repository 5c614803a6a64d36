package data

import (
	"math"
	"testing"
	"testing/quick"

	"chatvis/internal/vmath"
)

func TestFieldBasics(t *testing.T) {
	f := NewField("var0", 1, 4)
	if f.NumTuples() != 4 {
		t.Fatalf("NumTuples = %d", f.NumTuples())
	}
	f.SetScalar(2, 3.5)
	if f.Scalar(2) != 3.5 {
		t.Errorf("Scalar(2) = %v", f.Scalar(2))
	}
	lo, hi := f.Range()
	if lo != 0 || hi != 3.5 {
		t.Errorf("Range = %v..%v", lo, hi)
	}
}

func TestFieldVec3(t *testing.T) {
	f := NewField("V", 3, 2)
	f.SetVec3(1, vmath.V(1, 2, 3))
	if got := f.Vec3(1); got != vmath.V(1, 2, 3) {
		t.Errorf("Vec3 = %v", got)
	}
	if got := f.Vec3(0); got != vmath.V(0, 0, 0) {
		t.Errorf("Vec3(0) = %v", got)
	}
}

func TestFieldAppendPanicsOnWrongArity(t *testing.T) {
	f := NewField("V", 3, 0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong tuple size")
		}
	}()
	f.Append(1, 2)
}

func TestFieldEmptyRangeDefaults(t *testing.T) {
	f := NewField("x", 1, 0)
	lo, hi := f.Range()
	if lo != 0 || hi != 1 {
		t.Errorf("empty Range = %v..%v, want 0..1", lo, hi)
	}
}

func TestFieldClone(t *testing.T) {
	f := NewField("x", 1, 2)
	f.SetScalar(0, 1)
	g := f.Clone()
	g.SetScalar(0, 99)
	if f.Scalar(0) != 1 {
		t.Error("Clone should deep-copy data")
	}
}

func TestFieldSetOrderAndReplace(t *testing.T) {
	fs := NewFieldSet()
	fs.Add(NewField("b", 1, 1))
	fs.Add(NewField("a", 3, 1))
	fs.Add(NewField("c", 1, 1))
	names := fs.Names()
	if len(names) != 3 || names[0] != "b" || names[1] != "a" || names[2] != "c" {
		t.Errorf("Names = %v", names)
	}
	replacement := NewField("a", 1, 5)
	fs.Add(replacement)
	if fs.Len() != 3 {
		t.Errorf("Len after replace = %d", fs.Len())
	}
	if fs.Get("a") != replacement {
		t.Error("replace should swap field in place")
	}
	if fs.FirstScalar() == nil || fs.FirstScalar().Name != "b" {
		t.Errorf("FirstScalar = %v", fs.FirstScalar())
	}
	if !fs.Has("c") || fs.Has("zzz") {
		t.Error("Has misbehaves")
	}
	if fs.First().Name != "b" {
		t.Errorf("First = %q", fs.First().Name)
	}
}

func TestFieldSetFirstVector(t *testing.T) {
	fs := NewFieldSet()
	fs.Add(NewField("t", 1, 1))
	fs.Add(NewField("V", 3, 1))
	if fs.FirstVector() == nil || fs.FirstVector().Name != "V" {
		t.Error("FirstVector should find V")
	}
}

func TestImageDataIndexRoundTrip(t *testing.T) {
	im := NewImageData(5, 7, 3, vmath.V(0, 0, 0), vmath.V(1, 1, 1))
	f := func(raw uint32) bool {
		idx := int(raw) % im.NumPoints()
		i, j, k := im.IJK(idx)
		return im.Index(i, j, k) == idx &&
			i >= 0 && i < 5 && j >= 0 && j < 7 && k >= 0 && k < 3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestImageDataPointAndBounds(t *testing.T) {
	im := NewImageData(3, 3, 3, vmath.V(-1, -1, -1), vmath.V(1, 1, 1))
	if got := im.Point(im.Index(2, 2, 2)); got != vmath.V(1, 1, 1) {
		t.Errorf("corner = %v", got)
	}
	b := im.Bounds()
	if b.Min != vmath.V(-1, -1, -1) || b.Max != vmath.V(1, 1, 1) {
		t.Errorf("bounds = %v..%v", b.Min, b.Max)
	}
}

func TestImageDataTrilinearSample(t *testing.T) {
	im := NewImageData(2, 2, 2, vmath.V(0, 0, 0), vmath.V(1, 1, 1))
	f := NewField("s", 1, 8)
	// s = x + 10y + 100z at corners; trilinear interpolation is exact for
	// multilinear functions.
	for idx := 0; idx < 8; idx++ {
		p := im.Point(idx)
		f.SetScalar(idx, p.X+10*p.Y+100*p.Z)
	}
	im.Points.Add(f)
	check := func(x, y, z float64) {
		got, ok := im.SampleScalar(f, vmath.V(x, y, z))
		if !ok {
			t.Fatalf("sample at (%v,%v,%v) out of bounds", x, y, z)
		}
		want := x + 10*y + 100*z
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("sample(%v,%v,%v) = %v, want %v", x, y, z, got, want)
		}
	}
	check(0.5, 0.5, 0.5)
	check(0.25, 0.75, 0.1)
	check(0, 0, 0)
	check(1, 1, 1)
	if _, ok := im.SampleScalar(f, vmath.V(1.01, 0, 0)); ok {
		t.Error("sample outside volume should fail")
	}
	if _, ok := im.SampleScalar(f, vmath.V(-0.01, 0, 0)); ok {
		t.Error("sample outside volume should fail")
	}
}

func TestImageDataSampleVector(t *testing.T) {
	im := NewImageData(2, 2, 2, vmath.V(0, 0, 0), vmath.V(1, 1, 1))
	f := NewField("V", 3, 8)
	for idx := 0; idx < 8; idx++ {
		p := im.Point(idx)
		f.SetVec3(idx, vmath.V(p.X, p.Y, p.Z))
	}
	im.Points.Add(f)
	got, ok := im.SampleVector(f, vmath.V(0.5, 0.25, 0.75))
	if !ok || !got.NearEq(vmath.V(0.5, 0.25, 0.75), 1e-12) {
		t.Errorf("SampleVector = %v ok=%v", got, ok)
	}
}

func TestCellTypeCorners(t *testing.T) {
	cases := map[CellType]int{
		CellVertex: 1, CellLine: 2, CellTriangle: 3, CellQuad: 4,
		CellTetra: 4, CellPyramid: 5, CellWedge: 6, CellHexahedron: 8,
		CellVoxel: 8, CellPolyLine: 0, CellPolygon: 0,
	}
	for ct, want := range cases {
		if got := ct.NumCorners(); got != want {
			t.Errorf("%v corners = %d, want %d", ct, got, want)
		}
	}
	if CellTetra.String() != "tetra" {
		t.Errorf("String = %q", CellTetra.String())
	}
}

func TestUnstructuredGridBasics(t *testing.T) {
	u := NewUnstructuredGrid()
	a := u.AddPoint(vmath.V(0, 0, 0))
	b := u.AddPoint(vmath.V(1, 0, 0))
	c := u.AddPoint(vmath.V(0, 1, 0))
	d := u.AddPoint(vmath.V(0, 0, 1))
	u.AddCell(CellTetra, a, b, c, d)
	if u.NumPoints() != 4 || u.NumCells() != 1 {
		t.Fatalf("counts = %d pts %d cells", u.NumPoints(), u.NumCells())
	}
	if u.TypeName() != "vtkUnstructuredGrid" {
		t.Errorf("TypeName = %q", u.TypeName())
	}
	bb := u.Bounds()
	if bb.Min != vmath.V(0, 0, 0) || bb.Max != vmath.V(1, 1, 1) {
		t.Errorf("bounds = %v..%v", bb.Min, bb.Max)
	}
}

func TestPolyDataTriangleIteration(t *testing.T) {
	p := NewPolyData()
	for _, pt := range []vmath.Vec3{
		{X: 0}, {X: 1}, {X: 1, Y: 1}, {Y: 1},
	} {
		p.AddPoint(pt)
	}
	p.AddPoly(0, 1, 2, 3) // quad -> 2 triangles
	p.AddTriangle(0, 1, 2)
	if p.NumTriangles() != 3 {
		t.Errorf("NumTriangles = %d", p.NumTriangles())
	}
	var tris [][3]int
	p.EachTriangle(func(a, b, c int) { tris = append(tris, [3]int{a, b, c}) })
	if len(tris) != 3 {
		t.Fatalf("EachTriangle visited %d", len(tris))
	}
	if tris[0] != [3]int{0, 1, 2} || tris[1] != [3]int{0, 2, 3} {
		t.Errorf("fan triangulation = %v", tris[:2])
	}
}

func TestPolyDataClone(t *testing.T) {
	p := NewPolyData()
	p.AddPoint(vmath.V(1, 2, 3))
	p.AddVert(0)
	p.AddLine(0, 0)
	f := NewField("s", 1, 1)
	f.SetScalar(0, 7)
	p.Points.Add(f)
	q := p.Clone()
	q.Pts[0] = vmath.V(9, 9, 9)
	q.Points.Get("s").SetScalar(0, -1)
	q.Lines[0][0] = 42
	if p.Pts[0] != vmath.V(1, 2, 3) || p.Points.Get("s").Scalar(0) != 7 || p.Lines[0][0] != 0 {
		t.Error("Clone must be deep")
	}
	if q.NumCells() != 2 {
		t.Errorf("clone NumCells = %d", q.NumCells())
	}
}

func TestFieldRangeHelper(t *testing.T) {
	p := NewPolyData()
	p.AddPoint(vmath.V(0, 0, 0))
	f := NewField("T", 1, 1)
	f.SetScalar(0, 5)
	p.Points.Add(f)
	lo, hi := FieldRange(p, "T")
	if lo != 5 || hi != 5 {
		t.Errorf("FieldRange = %v..%v", lo, hi)
	}
	lo, hi = FieldRange(p, "missing")
	if lo != 0 || hi != 1 {
		t.Errorf("missing FieldRange = %v..%v, want default 0..1", lo, hi)
	}
}
