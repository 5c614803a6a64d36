package filters

import (
	"context"
	"reflect"
	"testing"

	"chatvis/internal/data"
	"chatvis/internal/datagen"
	"chatvis/internal/vmath"
)

// walkTets returns the tetra decomposition of every cell forCells walks
// on ds, in walk order.
func walkTets(ds data.Dataset) [][4]int {
	n, _ := cellCount(ds)
	var tets [][4]int
	forCells(ds, 0, n, func(c data.Cell) { tets = CellTets(c, tets) })
	return tets
}

// voxelGrid is the image as an unstructured grid of voxel cells over the
// same points and point data: the reference the image walk must match.
// Each cell gets its own id slice, because forCells reuses the image's.
func voxelGrid(im *data.ImageData) *data.UnstructuredGrid {
	ug := data.NewUnstructuredGrid()
	for i := 0; i < im.NumPoints(); i++ {
		ug.AddPoint(im.Point(i))
	}
	ug.Points = im.Points.Clone()
	n, _ := cellCount(im)
	forCells(im, 0, n, func(c data.Cell) {
		ug.AddCell(c.Type, append([]int(nil), c.IDs...)...)
	})
	return ug
}

// sameGrid fails the test unless got and want hold equal points, cells
// and point data.
func sameGrid(t *testing.T, name string, got, want *data.UnstructuredGrid) {
	t.Helper()
	if !reflect.DeepEqual(got.Pts, want.Pts) {
		t.Fatalf("%s: points differ (%d vs %d)", name, len(got.Pts), len(want.Pts))
	}
	if !reflect.DeepEqual(got.Cells, want.Cells) {
		t.Fatalf("%s: cells differ (%d vs %d)", name, len(got.Cells), len(want.Cells))
	}
	if gn, wn := got.Points.Names(), want.Points.Names(); !reflect.DeepEqual(gn, wn) {
		t.Fatalf("%s: field names differ: %v vs %v", name, gn, wn)
	}
	for i := 0; i < want.Points.Len(); i++ {
		if !reflect.DeepEqual(got.Points.At(i).Data, want.Points.At(i).Data) {
			t.Fatalf("%s: field %q differs", name, want.Points.At(i).Name)
		}
	}
}

// TestForCellsImageVoxels: an image's walk yields its voxels i-fastest
// with bitmask-ordered corners, any split into ranges walks the same
// cells, and degenerate images and polygonal data have none.
func TestForCellsImageVoxels(t *testing.T) {
	im := data.NewImageData(4, 3, 2, vmath.V(0, 0, 0), vmath.V(1, 1, 1))
	n, ok := cellCount(im)
	if !ok || n != 3*2*1 {
		t.Fatalf("cellCount = %d, %v; want 6, true", n, ok)
	}
	var whole [][]int
	forCells(im, 0, n, func(c data.Cell) {
		if c.Type != data.CellVoxel {
			t.Fatalf("cell type %v, want voxel", c.Type)
		}
		whole = append(whole, append([]int(nil), c.IDs...))
	})
	// Voxel (i=1, j=1, k=0) is the fifth: corners by bitmask bit0→+x,
	// bit1→+y, bit2→+z.
	want := []int{
		im.Index(1, 1, 0), im.Index(2, 1, 0), im.Index(1, 2, 0), im.Index(2, 2, 0),
		im.Index(1, 1, 1), im.Index(2, 1, 1), im.Index(1, 2, 1), im.Index(2, 2, 1),
	}
	if !reflect.DeepEqual(whole[4], want) {
		t.Errorf("voxel 4 = %v, want %v", whole[4], want)
	}
	var split [][]int
	for _, r := range [][2]int{{0, 1}, {1, 4}, {4, 4}, {4, 6}} {
		forCells(im, r[0], r[1], func(c data.Cell) { split = append(split, append([]int(nil), c.IDs...)) })
	}
	if !reflect.DeepEqual(split, whole) {
		t.Errorf("ranged walk = %v, want %v", split, whole)
	}
	for _, dims := range [][3]int{{1, 3, 3}, {3, 3, 1}, {0, 0, 0}} {
		flat := data.NewImageData(dims[0], dims[1], dims[2], vmath.V(0, 0, 0), vmath.V(1, 1, 1))
		if n, ok := cellCount(flat); !ok || n != 0 {
			t.Errorf("cellCount(%v image) = %d, %v; want 0, true", dims, n, ok)
		}
	}
	if _, ok := cellCount(data.NewPolyData()); ok {
		t.Error("cellCount accepted PolyData")
	}
}

// TestImageFiltersMatchVoxelGrid: every volume filter reads an image's
// voxels exactly as it reads the same voxels stored as an unstructured
// grid, so its output is identical.
func TestImageFiltersMatchVoxelGrid(t *testing.T) {
	im := datagen.MarschnerLobb(16)
	ug := voxelGrid(im)
	plane := vmath.NewPlane(vmath.V(0.1, 0, 0), vmath.V(-1, 0.2, 0))
	ctx := context.Background()

	clipIm, err := ClipVolume(ctx, im, plane)
	if err != nil {
		t.Fatal(err)
	}
	clipUG, err := ClipVolume(ctx, ug, plane)
	if err != nil {
		t.Fatal(err)
	}
	if clipIm.NumCells() == 0 || clipIm.Points.Get("var0") == nil {
		t.Fatal("image clip is empty or lost its point data")
	}
	sameGrid(t, "clip", clipIm, clipUG)

	for _, method := range []ThresholdMethod{ThresholdAllPoints, ThresholdAnyPoint} {
		thIm, err := Threshold(im, "var0", 0.3, 0.7, method)
		if err != nil {
			t.Fatal(err)
		}
		thUG, err := Threshold(ug, "var0", 0.3, 0.7, method)
		if err != nil {
			t.Fatal(err)
		}
		if thIm.NumCells() == 0 {
			t.Fatal("image threshold is empty")
		}
		sameGrid(t, "threshold", thIm, thUG)
	}

	surfIm, err := Contour(im, "var0", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	surfUG, err := Contour(ug, "var0", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	comparePolyData(t, "contour", 1, surfIm, surfUG)
	sliceIm, err := Slice(im, plane)
	if err != nil {
		t.Fatal(err)
	}
	sliceUG, err := Slice(ug, plane)
	if err != nil {
		t.Fatal(err)
	}
	comparePolyData(t, "slice", 1, sliceIm, sliceUG)
}
