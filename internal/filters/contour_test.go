package filters

import (
	"math"
	"testing"
	"testing/quick"

	"chatvis/internal/data"
	"chatvis/internal/datagen"
	"chatvis/internal/vmath"
)

// sphereVolume builds an n^3 volume of the distance-from-origin field, so
// the isosurface at r is a sphere of radius r.
func sphereVolume(n int) *data.ImageData {
	spacing := 2.0 / float64(n-1)
	im := data.NewImageData(n, n, n, vmath.V(-1, -1, -1), vmath.V(spacing, spacing, spacing))
	f := data.NewField("dist", 1, im.NumPoints())
	for i := 0; i < im.NumPoints(); i++ {
		f.SetScalar(i, im.Point(i).Len())
	}
	im.Points.Add(f)
	return im
}

func TestContourSphere(t *testing.T) {
	im := sphereVolume(24)
	surf, err := Contour(im, "dist", 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if surf.NumTriangles() == 0 {
		t.Fatal("empty isosurface")
	}
	// Every output vertex lies (nearly) on the 0.6 sphere; linear
	// interpolation error on a 24^3 grid stays small.
	for _, p := range surf.Pts {
		r := p.Len()
		if math.Abs(r-0.6) > 0.02 {
			t.Fatalf("vertex at radius %v, want ~0.6", r)
		}
	}
	// Interpolated field value equals the isovalue exactly on crossing
	// edges (the invariant of marching interpolation).
	f := surf.Points.Get("dist")
	if f == nil {
		t.Fatal("dist not interpolated onto surface")
	}
	for i := 0; i < f.NumTuples(); i++ {
		if math.Abs(f.Scalar(i)-0.6) > 1e-9 {
			t.Fatalf("interpolated scalar %v != isovalue", f.Scalar(i))
		}
	}
}

func TestContourSurfaceAreaApproximatesSphere(t *testing.T) {
	im := sphereVolume(40)
	surf, err := Contour(im, "dist", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	area := 0.0
	surf.EachTriangle(func(a, b, c int) {
		area += surf.Pts[b].Sub(surf.Pts[a]).Cross(surf.Pts[c].Sub(surf.Pts[a])).Len() / 2
	})
	want := 4 * math.Pi * 0.25
	if math.Abs(area-want)/want > 0.05 {
		t.Errorf("area = %v, want ~%v", area, want)
	}
}

func TestContourWatertight(t *testing.T) {
	// A closed isosurface has every edge shared by exactly two triangles.
	im := sphereVolume(16)
	surf, err := Contour(im, "dist", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	edges := make(map[[2]int]int)
	surf.EachTriangle(func(a, b, c int) {
		for _, e := range [][2]int{{a, b}, {b, c}, {c, a}} {
			if e[0] > e[1] {
				e[0], e[1] = e[1], e[0]
			}
			edges[e]++
		}
	})
	for e, n := range edges {
		if n != 2 {
			t.Fatalf("edge %v used %d times; surface not watertight", e, n)
		}
	}
}

func TestContourOrientationConsistent(t *testing.T) {
	// Normals of a closed isosurface of a radial field should point
	// outward (toward increasing field = away from origin) or at least be
	// consistent; check the average dot with the radial direction.
	im := sphereVolume(20)
	surf, err := Contour(im, "dist", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	pos, neg := 0, 0
	surf.EachTriangle(func(a, b, c int) {
		n := surf.Pts[b].Sub(surf.Pts[a]).Cross(surf.Pts[c].Sub(surf.Pts[a]))
		centroid := surf.Pts[a].Add(surf.Pts[b]).Add(surf.Pts[c]).Mul(1.0 / 3)
		if n.Dot(centroid) > 0 {
			pos++
		} else {
			neg++
		}
	})
	if pos != 0 && neg != 0 {
		t.Errorf("mixed orientation: %d outward, %d inward", pos, neg)
	}
}

func TestContourErrors(t *testing.T) {
	im := sphereVolume(4)
	if _, err := Contour(im, "nope", 0.5); err == nil {
		t.Error("missing array should error")
	}
	vec := data.NewField("v", 3, im.NumPoints())
	im.Points.Add(vec)
	if _, err := Contour(im, "v", 0.5); err == nil {
		t.Error("vector array should error")
	}
	pd := data.NewPolyData()
	sf := data.NewField("s", 1, 0)
	pd.Points.Add(sf)
	if _, err := Contour(pd, "s", 0.5); err == nil {
		t.Error("polydata input should error")
	}
}

func TestContourEmptyWhenOutOfRange(t *testing.T) {
	im := sphereVolume(8)
	surf, err := Contour(im, "dist", 99)
	if err != nil {
		t.Fatal(err)
	}
	if surf.NumTriangles() != 0 {
		t.Error("isovalue outside range should give empty surface")
	}
}

func TestContourMarschnerLobb(t *testing.T) {
	im := datagen.MarschnerLobb(32)
	surf, err := Contour(im, "var0", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if surf.NumTriangles() < 1000 {
		t.Errorf("ML isosurface suspiciously small: %d triangles", surf.NumTriangles())
	}
	b := surf.Bounds()
	if b.Min.X < -1.001 || b.Max.X > 1.001 {
		t.Errorf("surface escapes the domain: %v..%v", b.Min, b.Max)
	}
}

func TestContourUnstructuredGrid(t *testing.T) {
	ug := datagen.DiskFlow(6, 24, 6)
	surf, err := Contour(ug, "Temp", 500)
	if err != nil {
		t.Fatal(err)
	}
	if surf.NumTriangles() == 0 {
		t.Fatal("empty Temp isosurface on disk")
	}
	f := surf.Points.Get("Temp")
	for i := 0; i < f.NumTuples(); i++ {
		if math.Abs(f.Scalar(i)-500) > 1e-6 {
			t.Fatalf("interpolated Temp = %v", f.Scalar(i))
		}
	}
	// Other fields must be carried along.
	if surf.Points.Get("V") == nil || surf.Points.Get("Pres") == nil {
		t.Error("point data arrays not propagated")
	}
}

func TestSlicePlane(t *testing.T) {
	im := sphereVolume(20)
	plane := vmath.NewPlane(vmath.V(0, 0, 0), vmath.V(1, 0, 0))
	cut, err := Slice(im, plane)
	if err != nil {
		t.Fatal(err)
	}
	if cut.NumTriangles() == 0 {
		t.Fatal("empty slice")
	}
	for _, p := range cut.Pts {
		if math.Abs(p.X) > 1e-9 {
			t.Fatalf("slice point off plane: %v", p)
		}
	}
	// The scalar field travels with the slice and is correct there.
	f := cut.Points.Get("dist")
	if f == nil {
		t.Fatal("dist missing on slice")
	}
	for i, p := range cut.Pts {
		want := p.Len()
		if want < 0.3 {
			// |p| is non-smooth at the origin; linear interpolation error
			// is legitimately large there.
			continue
		}
		if math.Abs(f.Scalar(i)-want) > 0.02 {
			t.Fatalf("slice scalar %v at %v, want %v", f.Scalar(i), p, want)
		}
	}
	// Slice area should be close to the full y-z cross-section (2x2 square).
	area := 0.0
	cut.EachTriangle(func(a, b, c int) {
		area += cut.Pts[b].Sub(cut.Pts[a]).Cross(cut.Pts[c].Sub(cut.Pts[a])).Len() / 2
	})
	if math.Abs(area-4) > 0.05 {
		t.Errorf("slice area = %v, want ~4", area)
	}
}

func TestSliceOffsetPlaneProperty(t *testing.T) {
	im := sphereVolume(12)
	f := func(raw float64) bool {
		off := math.Mod(math.Abs(raw), 0.9)
		plane := vmath.NewPlane(vmath.V(off, 0, 0), vmath.V(1, 0, 0))
		cut, err := Slice(im, plane)
		if err != nil {
			return false
		}
		for _, p := range cut.Pts {
			if math.Abs(p.X-off) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSliceUnstructured(t *testing.T) {
	ug := datagen.DiskFlow(5, 16, 5)
	plane := vmath.NewPlane(vmath.V(0, 0, 1), vmath.V(0, 0, 1))
	cut, err := Slice(ug, plane)
	if err != nil {
		t.Fatal(err)
	}
	if cut.NumTriangles() == 0 {
		t.Fatal("empty slice of disk")
	}
	for _, p := range cut.Pts {
		if math.Abs(p.Z-1) > 1e-9 {
			t.Fatalf("slice point off plane: %v", p)
		}
	}
}

func TestContourLines(t *testing.T) {
	// Slice the sphere volume, then contour the slice at dist=0.5: the
	// result should be a circle of radius 0.5 in the y-z plane.
	im := sphereVolume(24)
	plane := vmath.NewPlane(vmath.V(0, 0, 0), vmath.V(1, 0, 0))
	cut, err := Slice(im, plane)
	if err != nil {
		t.Fatal(err)
	}
	lines, err := ContourLines(cut, "dist", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines.Lines) == 0 {
		t.Fatal("no contour lines")
	}
	for _, p := range lines.Pts {
		r := math.Hypot(p.Y, p.Z)
		if math.Abs(r-0.5) > 0.02 {
			t.Fatalf("contour point radius %v, want ~0.5", r)
		}
		if math.Abs(p.X) > 1e-9 {
			t.Fatalf("contour point off slice plane: %v", p)
		}
	}
	if _, err := ContourLines(cut, "missing", 0.5); err == nil {
		t.Error("missing array should error")
	}
}

func TestCellTetsDecomposition(t *testing.T) {
	// Hexahedron decomposes into 6 tets that exactly fill the cube volume.
	ug := data.NewUnstructuredGrid()
	for i := 0; i < 8; i++ {
		// VTK hex ordering.
		corners := [][3]float64{
			{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0},
			{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1},
		}
		ug.AddPoint(vmath.V(corners[i][0], corners[i][1], corners[i][2]))
	}
	ug.AddCell(data.CellHexahedron, 0, 1, 2, 3, 4, 5, 6, 7)
	tets := walkTets(ug)
	if len(tets) != 6 {
		t.Fatalf("hex -> %d tets, want 6", len(tets))
	}
	vol := 0.0
	for _, tt := range tets {
		vol += math.Abs(TetVolume(ug.Pts[tt[0]], ug.Pts[tt[1]], ug.Pts[tt[2]], ug.Pts[tt[3]]))
	}
	if math.Abs(vol-1) > 1e-12 {
		t.Errorf("tet volumes sum to %v, want 1", vol)
	}
}

func TestCellTetsWedgePyramid(t *testing.T) {
	ug := data.NewUnstructuredGrid()
	// Wedge: unit right triangular prism, volume 0.5.
	for _, c := range [][3]float64{
		{0, 0, 0}, {1, 0, 0}, {0, 1, 0},
		{0, 0, 1}, {1, 0, 1}, {0, 1, 1},
	} {
		ug.AddPoint(vmath.V(c[0], c[1], c[2]))
	}
	ug.AddCell(data.CellWedge, 0, 1, 2, 3, 4, 5)
	tets := walkTets(ug)
	if len(tets) != 3 {
		t.Fatalf("wedge -> %d tets", len(tets))
	}
	vol := 0.0
	for _, tt := range tets {
		vol += math.Abs(TetVolume(ug.Pts[tt[0]], ug.Pts[tt[1]], ug.Pts[tt[2]], ug.Pts[tt[3]]))
	}
	if math.Abs(vol-0.5) > 1e-12 {
		t.Errorf("wedge volume = %v, want 0.5", vol)
	}
	// Pyramid over unit square, apex height 1, volume 1/3.
	ug2 := data.NewUnstructuredGrid()
	for _, c := range [][3]float64{
		{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0}, {0.5, 0.5, 1},
	} {
		ug2.AddPoint(vmath.V(c[0], c[1], c[2]))
	}
	ug2.AddCell(data.CellPyramid, 0, 1, 2, 3, 4)
	tets = walkTets(ug2)
	if len(tets) != 2 {
		t.Fatalf("pyramid -> %d tets", len(tets))
	}
	vol = 0
	for _, tt := range tets {
		vol += math.Abs(TetVolume(ug2.Pts[tt[0]], ug2.Pts[tt[1]], ug2.Pts[tt[2]], ug2.Pts[tt[3]]))
	}
	if math.Abs(vol-1.0/3) > 1e-12 {
		t.Errorf("pyramid volume = %v, want 1/3", vol)
	}
}

func TestBarycentric(t *testing.T) {
	a, b, c, d := vmath.V(0, 0, 0), vmath.V(1, 0, 0), vmath.V(0, 1, 0), vmath.V(0, 0, 1)
	l, ok := Barycentric(vmath.V(0.25, 0.25, 0.25), a, b, c, d)
	if !ok {
		t.Fatal("degenerate?")
	}
	for _, li := range l {
		if math.Abs(li-0.25) > 1e-12 {
			t.Fatalf("barycentric = %v", l)
		}
	}
	if !InsideTet(l, 0) {
		t.Error("centroid should be inside")
	}
	l, _ = Barycentric(vmath.V(2, 2, 2), a, b, c, d)
	if InsideTet(l, 1e-9) {
		t.Error("far point should be outside")
	}
	if _, ok := Barycentric(vmath.V(0, 0, 0), a, b, c, a); ok {
		t.Error("degenerate tet should fail")
	}
}
