package filters

import (
	"math"
	"testing"

	"chatvis/internal/data"
	"chatvis/internal/datagen"
	"chatvis/internal/vmath"
)

func TestThresholdKeepsBand(t *testing.T) {
	disk := datagen.DiskFlow(6, 24, 6)
	out, err := Threshold(disk, "Temp", 500, 900, ThresholdAllPoints)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumCells() == 0 || out.NumCells() >= disk.NumCells() {
		t.Fatalf("threshold kept %d of %d cells", out.NumCells(), disk.NumCells())
	}
	f := out.Points.Get("Temp")
	for i := 0; i < f.NumTuples(); i++ {
		v := f.Scalar(i)
		if v < 500-1e-9 || v > 900+1e-9 {
			t.Fatalf("point with Temp=%v survived an AllPoints threshold", v)
		}
	}
	// Other fields carried over, with matching tuple counts.
	for _, name := range []string{"V", "Pres"} {
		g := out.Points.Get(name)
		if g == nil || g.NumTuples() != out.NumPoints() {
			t.Fatalf("field %s lost or mis-sized", name)
		}
	}
}

func TestThresholdAnyVsAll(t *testing.T) {
	disk := datagen.DiskFlow(5, 16, 5)
	all, err := Threshold(disk, "Temp", 500, 900, ThresholdAllPoints)
	if err != nil {
		t.Fatal(err)
	}
	anyM, err := Threshold(disk, "Temp", 500, 900, ThresholdAnyPoint)
	if err != nil {
		t.Fatal(err)
	}
	if anyM.NumCells() < all.NumCells() {
		t.Errorf("AnyPoint (%d cells) must keep at least as many as AllPoints (%d)",
			anyM.NumCells(), all.NumCells())
	}
}

func TestThresholdImageData(t *testing.T) {
	im := sphereVolume(10)
	out, err := Threshold(im, "dist", 0, 0.5, ThresholdAllPoints)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumCells() == 0 {
		t.Fatal("no voxels inside the sphere band")
	}
	for _, c := range out.Cells {
		if c.Type != data.CellVoxel {
			t.Fatal("image threshold should produce voxels")
		}
	}
	// Every surviving point is inside radius 0.5.
	for _, p := range out.Pts {
		if p.Len() > 0.5+1e-9 {
			t.Fatalf("point at radius %v survived", p.Len())
		}
	}
}

func TestThresholdErrors(t *testing.T) {
	disk := datagen.DiskFlow(3, 8, 3)
	if _, err := Threshold(disk, "nope", 0, 1, ThresholdAllPoints); err == nil {
		t.Error("missing array should error")
	}
	if _, err := Threshold(disk, "V", 0, 1, ThresholdAllPoints); err == nil {
		t.Error("vector array should error")
	}
	pd := data.NewPolyData()
	f := data.NewField("s", 1, 0)
	pd.Points.Add(f)
	if _, err := Threshold(pd, "s", 0, 1, ThresholdAllPoints); err == nil {
		t.Error("polydata should error")
	}
}

func TestTransformPolyData(t *testing.T) {
	pd := data.NewPolyData()
	pd.AddPoint(vmath.V(1, 0, 0))
	pd.AddPoint(vmath.V(0, 1, 0))
	pd.AddPoint(vmath.V(0, 0, 1))
	pd.AddTriangle(0, 1, 2)
	f := data.NewField("s", 1, 3)
	f.Data = []float64{1, 2, 3}
	pd.Points.Add(f)

	m := TransformFromTRS(vmath.V(10, 0, 0), vmath.V(0, 0, 90), vmath.V(2, 2, 2))
	out := TransformPolyData(pd, m)
	// Point (1,0,0): scale -> (2,0,0); rotate z 90 -> (0,2,0); translate -> (10,2,0).
	if !out.Pts[0].NearEq(vmath.V(10, 2, 0), 1e-9) {
		t.Errorf("transformed point = %v", out.Pts[0])
	}
	// Original untouched; data copied.
	if !pd.Pts[0].NearEq(vmath.V(1, 0, 0), 0) {
		t.Error("input mutated")
	}
	if out.Points.Get("s").Scalar(2) != 3 {
		t.Error("point data lost")
	}
	if out.NumTriangles() != 1 {
		t.Error("connectivity lost")
	}
}

func TestTransformGridPreservesVolumeUnderRotation(t *testing.T) {
	ug := data.NewUnstructuredGrid()
	corners := [][3]float64{
		{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0},
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1},
	}
	for _, c := range corners {
		ug.AddPoint(vmath.V(c[0], c[1], c[2]))
	}
	ug.AddCell(data.CellHexahedron, 0, 1, 2, 3, 4, 5, 6, 7)
	m := TransformFromTRS(vmath.V(5, -3, 2), vmath.V(30, 45, 60), vmath.V(1, 1, 1))
	out := TransformGrid(ug, m)
	vol := 0.0
	for _, tt := range walkTets(out) {
		vol += math.Abs(TetVolume(out.Pts[tt[0]], out.Pts[tt[1]], out.Pts[tt[2]], out.Pts[tt[3]]))
	}
	if math.Abs(vol-1) > 1e-9 {
		t.Errorf("rigid transform changed volume: %v", vol)
	}
}

func TestTransformFromTRSDefaults(t *testing.T) {
	m := TransformFromTRS(vmath.Vec3{}, vmath.Vec3{}, vmath.Vec3{})
	p := vmath.V(3, 4, 5)
	if !m.MulPoint(p).NearEq(p, 1e-12) {
		t.Error("zero TRS should be identity (scale defaults to 1)")
	}
}
