package filters

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"chatvis/internal/data"
	"chatvis/internal/datagen"
	"chatvis/internal/par"
	"chatvis/internal/vmath"
)

// withWorkers pins the par worker count for one test and restores the
// default afterwards.
func withWorkers(t *testing.T, n int) {
	t.Helper()
	par.SetWorkers(n)
	t.Cleanup(func() { par.SetWorkers(0) })
}

// equivalenceWorkers are the worker counts every equivalence test
// compares against the single-worker reference run.
var equivalenceWorkers = []int{2, 4, 8}

// withEquivalenceRun raises GOMAXPROCS (so multi-worker runs truly
// interleave even on a one-core runner), pins one worker for the
// reference run, and restores the worker count and GOMAXPROCS when the
// test ends.
func withEquivalenceRun(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(8)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(prev)
		par.SetWorkers(0)
	})
	par.SetWorkers(1)
}

// equivalentWorkerCounts runs build at workers {1, 2, 4, 8} and
// asserts every output is byte-identical to the single-worker run: the
// determinism contract of the index-ordered merge, extended over the
// pipelined OrderedSweep consumers.
func equivalentWorkerCounts(t *testing.T, name string, build func() *data.PolyData) {
	t.Helper()
	withEquivalenceRun(t)
	ref := build()
	for _, w := range equivalenceWorkers {
		par.SetWorkers(w)
		comparePolyData(t, name, w, ref, build())
	}
}

func comparePolyData(t *testing.T, name string, workers int, ref, got *data.PolyData) {
	t.Helper()
	if !reflect.DeepEqual(ref.Pts, got.Pts) {
		t.Fatalf("%s workers=%d: points differ (%d vs %d)", name, workers, len(ref.Pts), len(got.Pts))
	}
	if !reflect.DeepEqual(ref.Polys, got.Polys) {
		t.Fatalf("%s workers=%d: polygons differ (%d vs %d)", name, workers, len(ref.Polys), len(got.Polys))
	}
	if !reflect.DeepEqual(ref.Lines, got.Lines) {
		t.Fatalf("%s workers=%d: lines differ (%d vs %d)", name, workers, len(ref.Lines), len(got.Lines))
	}
	if !reflect.DeepEqual(ref.Verts, got.Verts) {
		t.Fatalf("%s workers=%d: vertices differ", name, workers)
	}
	if rn, gn := ref.Points.Names(), got.Points.Names(); !reflect.DeepEqual(rn, gn) {
		t.Fatalf("%s workers=%d: field names differ: %v vs %v", name, workers, rn, gn)
	}
	for i := 0; i < ref.Points.Len(); i++ {
		rf, gf := ref.Points.At(i), got.Points.At(i)
		if !reflect.DeepEqual(rf.Data, gf.Data) {
			t.Fatalf("%s workers=%d: field %q data differs", name, workers, rf.Name)
		}
	}
}

func TestContourParallelEquivalence(t *testing.T) {
	vol := datagen.MarschnerLobb(24)
	equivalentWorkerCounts(t, "contour-image", func() *data.PolyData {
		out, err := Contour(vol, "var0", 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return out
	})
	disk := datagen.DiskFlow(5, 16, 5)
	equivalentWorkerCounts(t, "contour-grid", func() *data.PolyData {
		out, err := Contour(disk, "Temp", 600)
		if err != nil {
			t.Fatal(err)
		}
		return out
	})
	// The sparse corner blob concentrates every crossing in the sweep
	// tail, so a few chunks carry nearly all the work — and must still
	// merge identically.
	sparse := datagen.SparseBlob(24)
	equivalentWorkerCounts(t, "contour-sparse", func() *data.PolyData {
		out, err := Contour(sparse, "var0", 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return out
	})
}

func TestSliceParallelEquivalence(t *testing.T) {
	vol := datagen.MarschnerLobb(24)
	plane := vmath.NewPlane(vmath.V(0.1, 0, 0), vmath.V(1, 0.2, 0))
	equivalentWorkerCounts(t, "slice", func() *data.PolyData {
		out, err := Slice(vol, plane)
		if err != nil {
			t.Fatal(err)
		}
		return out
	})
}

func TestClipPolyDataParallelEquivalence(t *testing.T) {
	vol := datagen.MarschnerLobb(24)
	surf, err := Contour(vol, "var0", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	plane := vmath.NewPlane(vmath.V(0.05, 0, 0), vmath.V(-1, 0, 0.3))
	equivalentWorkerCounts(t, "clip-poly", func() *data.PolyData {
		return ClipPolyData(surf, plane)
	})
	// Skewed clip: survivors cluster at the tail of the polygon sweep,
	// so the chunks carry very unequal work — output must not care.
	skew := vmath.NewPlane(vmath.V(0, 0, 0.6), vmath.V(0, 0, 1))
	equivalentWorkerCounts(t, "clip-skewed", func() *data.PolyData {
		return ClipPolyData(surf, skew)
	})
}

func TestClipUnstructuredParallelEquivalence(t *testing.T) {
	disk := datagen.DiskFlow(5, 16, 5)
	plane := vmath.NewPlane(vmath.V(0, 0, 0), vmath.V(1, 0, 0))
	withEquivalenceRun(t)
	ref, err := ClipUnstructured(disk, plane)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range equivalenceWorkers {
		par.SetWorkers(w)
		got, err := ClipUnstructured(disk, plane)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.Pts, got.Pts) {
			t.Fatalf("workers=%d: points differ", w)
		}
		if !reflect.DeepEqual(ref.Cells, got.Cells) {
			t.Fatalf("workers=%d: cells differ", w)
		}
		for i := 0; i < ref.Points.Len(); i++ {
			if !reflect.DeepEqual(ref.Points.At(i).Data, got.Points.At(i).Data) {
				t.Fatalf("workers=%d: field %q differs", w, ref.Points.At(i).Name)
			}
		}
	}
}

func TestGlyphParallelEquivalence(t *testing.T) {
	disk := datagen.DiskFlow(5, 16, 5)
	pts := ExtractSurface(disk)
	equivalentWorkerCounts(t, "glyph", func() *data.PolyData {
		return Glyph(pts, GlyphOptions{Type: GlyphCone, OrientationArray: "V"})
	})
}

func TestStreamTracerParallelEquivalence(t *testing.T) {
	disk := datagen.DiskFlow(5, 16, 5)
	sampler, err := NewGridSampler(disk, "V")
	if err != nil {
		t.Fatal(err)
	}
	seeds := DefaultPointCloudSeeds(disk.Bounds(), 40)
	equivalentWorkerCounts(t, "stream", func() *data.PolyData {
		return StreamTracer(sampler, seeds, StreamTracerOptions{})
	})
}

// TestArenaReuseEquivalence pins the arena hygiene contract: the
// pooled builders a sweep checks out are recycled into the next sweep,
// so a second consecutive run of the same filter — which by
// construction reuses the scratch the first run dirtied — must be
// byte-identical to the first. Any missed Reset field, stale PairTable
// generation or output aliasing arena memory shows up as a diff here
// (and as a race under -race, since sweeps overlap chunk goroutines).
func TestArenaReuseEquivalence(t *testing.T) {
	withWorkers(t, 4)
	vol := datagen.MarschnerLobb(24)
	surf, err := Contour(vol, "var0", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	plane := vmath.NewPlane(vmath.V(0.05, 0, 0), vmath.V(-1, 0, 0.3))
	disk := datagen.DiskFlow(5, 16, 5)
	sampler, err := NewGridSampler(disk, "V")
	if err != nil {
		t.Fatal(err)
	}
	seeds := DefaultPointCloudSeeds(disk.Bounds(), 40)

	builds := map[string]func() *data.PolyData{
		"contour": func() *data.PolyData {
			out, err := Contour(vol, "var0", 0.5)
			if err != nil {
				t.Fatal(err)
			}
			return out
		},
		"clip": func() *data.PolyData {
			return ClipPolyData(surf, plane)
		},
		"stream": func() *data.PolyData {
			return StreamTracer(sampler, seeds, StreamTracerOptions{})
		},
	}
	for name, build := range builds {
		first := build()
		// Snapshot before the second sweep: output aliasing arena
		// scratch would be rewritten with identical bytes by an
		// identical second run, so equality of first vs second alone
		// cannot catch it — divergence from the snapshot can.
		snapPts := append([]vmath.Vec3(nil), first.Pts...)
		var snapConn []int
		for _, poly := range first.Polys {
			snapConn = append(snapConn, poly...)
		}
		second := build()
		comparePolyData(t, name+"-arena-reuse", 4, first, second)
		if !reflect.DeepEqual(first.Pts, snapPts) {
			t.Fatalf("%s: second sweep mutated the first sweep's points — output aliases arena scratch", name)
		}
		var gotConn []int
		for _, poly := range first.Polys {
			gotConn = append(gotConn, poly...)
		}
		if !reflect.DeepEqual(gotConn, snapConn) {
			t.Fatalf("%s: second sweep mutated the first sweep's connectivity — output aliases arena scratch", name)
		}
	}
}

// TestContourCancellation pins the context contract: a canceled sweep
// returns an error instead of partial geometry.
func TestContourCancellation(t *testing.T) {
	withWorkers(t, 4)
	vol := datagen.MarschnerLobb(16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ContourContext(ctx, vol, "var0", 0.5); err == nil {
		t.Fatal("canceled contour should error")
	}
	if _, err := StreamTracerContext(ctx, mustSampler(t, vol), []vmath.Vec3{{}}, StreamTracerOptions{}); err == nil {
		t.Fatal("canceled stream trace should error")
	}
}

func mustSampler(t *testing.T, vol *data.ImageData) VectorSampler {
	t.Helper()
	n := vol.NumPoints()
	v := data.NewField("vel", 3, n)
	for i := 0; i < n; i++ {
		v.SetVec3(i, vmath.V(1, 0, 0))
	}
	vol.Points.Add(v)
	s, err := NewImageSampler(vol, "vel")
	if err != nil {
		t.Fatal(err)
	}
	return s
}
