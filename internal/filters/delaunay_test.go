package filters

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"chatvis/internal/data"
	"chatvis/internal/datagen"
	"chatvis/internal/vmath"
)

func randomCloud(n int, seed int64) *data.UnstructuredGrid {
	rng := rand.New(rand.NewSource(seed))
	ug := data.NewUnstructuredGrid()
	for i := 0; i < n; i++ {
		id := ug.AddPoint(vmath.V(rng.Float64(), rng.Float64(), rng.Float64()))
		ug.AddCell(data.CellVertex, id)
	}
	return ug
}

func TestDelaunay3DSingleTet(t *testing.T) {
	ug := data.NewUnstructuredGrid()
	ug.AddPoint(vmath.V(0, 0, 0))
	ug.AddPoint(vmath.V(1, 0, 0))
	ug.AddPoint(vmath.V(0, 1, 0))
	ug.AddPoint(vmath.V(0, 0, 1))
	out, err := Delaunay3D(ug)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumCells() != 1 {
		t.Fatalf("4 points -> %d tets, want 1", out.NumCells())
	}
	if out.Cells[0].Type != data.CellTetra {
		t.Error("wrong cell type")
	}
}

func TestDelaunay3DErrors(t *testing.T) {
	ug := data.NewUnstructuredGrid()
	ug.AddPoint(vmath.V(0, 0, 0))
	if _, err := Delaunay3D(ug); err == nil {
		t.Error("too few points should error")
	}
	// Coincident points: degenerate cloud.
	ug2 := data.NewUnstructuredGrid()
	for i := 0; i < 5; i++ {
		ug2.AddPoint(vmath.V(1, 1, 1))
	}
	if _, err := Delaunay3D(ug2); err == nil {
		t.Error("degenerate cloud should error")
	}
}

// delaunayInvariants checks the two defining properties on a triangulation:
// (1) total tet volume equals the convex hull volume (here: points include
// the cube corners so hull volume is 1), and (2) the empty-circumsphere
// property holds for every tet against every input point.
func delaunayInvariants(t *testing.T, ug *data.UnstructuredGrid, out *data.UnstructuredGrid, hullVol float64) {
	t.Helper()
	vol := 0.0
	for _, c := range out.Cells {
		v := TetVolume(out.Pts[c.IDs[0]], out.Pts[c.IDs[1]], out.Pts[c.IDs[2]], out.Pts[c.IDs[3]])
		if v < -1e-12 {
			t.Fatalf("negative tet volume %v", v)
		}
		vol += math.Abs(v)
	}
	if hullVol > 0 && math.Abs(vol-hullVol)/hullVol > 0.02 {
		t.Errorf("tet volume sum = %v, hull = %v", vol, hullVol)
	}
	// Empty circumsphere (with slack for the jittered predicates).
	diag := out.Bounds().Diagonal()
	slack := diag * 1e-5
	for _, c := range out.Cells {
		ctr, r2, ok := circumsphere(out.Pts[c.IDs[0]], out.Pts[c.IDs[1]], out.Pts[c.IDs[2]], out.Pts[c.IDs[3]])
		if !ok {
			continue
		}
		r := math.Sqrt(r2)
		for pi, p := range ug.Pts {
			if pi == c.IDs[0] || pi == c.IDs[1] || pi == c.IDs[2] || pi == c.IDs[3] {
				continue
			}
			if p.Sub(ctr).Len() < r-slack {
				t.Fatalf("point %d strictly inside circumsphere of tet %v", pi, c.IDs)
			}
		}
	}
}

func TestDelaunay3DCubeWithInteriorPoints(t *testing.T) {
	ug := data.NewUnstructuredGrid()
	// Cube corners pin the hull.
	for i := 0; i < 8; i++ {
		ug.AddPoint(vmath.V(float64(i&1), float64(i>>1&1), float64(i>>2&1)))
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 40; i++ {
		ug.AddPoint(vmath.V(rng.Float64(), rng.Float64(), rng.Float64()))
	}
	out, err := Delaunay3D(ug)
	if err != nil {
		t.Fatal(err)
	}
	delaunayInvariants(t, ug, out, 1)
}

func TestDelaunay3DRandomCloudsSeveralSeeds(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		ug := randomCloud(60, seed)
		out, err := Delaunay3D(ug)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out.NumCells() < 60 {
			t.Errorf("seed %d: suspiciously few tets: %d", seed, out.NumCells())
		}
		delaunayInvariants(t, ug, out, 0) // hull volume unknown; skip volume check
	}
}

func TestDelaunay3DPreservesPointsAndData(t *testing.T) {
	ug := randomCloud(30, 9)
	f := data.NewField("DISPL", 1, 30)
	for i := range f.Data {
		f.Data[i] = float64(i)
	}
	ug.Points.Add(f)
	out, err := Delaunay3D(ug)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumPoints() != 30 {
		t.Fatalf("output points = %d", out.NumPoints())
	}
	for i := 0; i < 30; i++ {
		if !out.Pts[i].NearEq(ug.Pts[i], 0) {
			t.Fatal("point order/coords changed")
		}
	}
	g := out.Points.Get("DISPL")
	if g == nil || g.Scalar(17) != 17 {
		t.Error("point data not carried through")
	}
}

func TestDelaunay3DCanPoints(t *testing.T) {
	// The actual experiment dataset: must triangulate without error and
	// yield a mesh whose surface is plausible.
	ug := datagen.CanPoints(24, 10)
	out, err := Delaunay3D(ug)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumCells() < ug.NumPoints() {
		t.Errorf("tets = %d for %d points", out.NumCells(), ug.NumPoints())
	}
	surf := ExtractSurface(out)
	if surf.NumTriangles() < 100 {
		t.Errorf("hull surface too small: %d triangles", surf.NumTriangles())
	}
}

// TestDelaunay3DDeterministic: repeated triangulations of the same
// points are identical, cell for cell, so everything downstream (a clip,
// a rendered surface) is reproducible.
func TestDelaunay3DDeterministic(t *testing.T) {
	pts := datagen.CanPoints(24, 10)
	ref, err := Delaunay3D(pts)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 4; run++ {
		got, err := Delaunay3D(pts)
		if err != nil {
			t.Fatal(err)
		}
		sameGrid(t, fmt.Sprintf("run %d", run+2), got, ref)
	}
}
