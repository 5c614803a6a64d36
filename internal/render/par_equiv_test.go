package render

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"chatvis/internal/data"
	"chatvis/internal/filters"
	"chatvis/internal/par"
	"chatvis/internal/vmath"
)

// testScene builds a scene exercising every raster command kind: opaque
// and translucent surfaces, wireframe edges, polylines and points, plus
// a ray-cast volume.
func testScene(t *testing.T) *Renderer {
	t.Helper()
	vol := testVolume(20)
	surf, err := filters.Contour(vol, "scal", 0.45)
	if err != nil {
		t.Fatal(err)
	}
	filters.ComputePointNormals(surf)

	r := NewRenderer()
	a := NewActor(surf)
	a.ColorField = "scal"
	lo, hi := data.FieldRange(surf, "scal")
	a.LUT = NewCoolToWarm(lo, hi)
	r.AddActor(a)

	clip := filters.ClipPolyData(surf, vmath.NewPlane(vmath.V(0, 0, 0), vmath.V(1, 0, 0)))
	translucent := NewActor(clip)
	translucent.Opacity = 0.5
	r.AddActor(translucent)

	wire := NewActor(surf)
	wire.Rep = RepWireframe
	wire.LineWidth = 2
	r.AddActor(wire)

	lines := data.NewPolyData()
	p0 := lines.AddPoint(vmath.V(-1, -1, -1))
	p1 := lines.AddPoint(vmath.V(1, 1, 1))
	p2 := lines.AddPoint(vmath.V(1, -1, 0))
	lines.AddLine(p0, p1, p2)
	lines.AddVert(p0)
	la := NewActor(lines)
	la.PointSize = 5
	r.AddActor(la)

	r.AddVolume(NewVolumeActor(vol, "scal"))
	r.ResetCamera()
	return r
}

func testVolume(n int) *data.ImageData {
	im := data.NewImageData(n, n, n, vmath.V(-1, -1, -1), vmath.V(2/float64(n-1), 2/float64(n-1), 2/float64(n-1)))
	f := data.NewField("scal", 1, im.NumPoints())
	for i := 0; i < im.NumPoints(); i++ {
		p := im.Point(i)
		f.SetScalar(i, math.Sin(3*p.X)*math.Cos(2*p.Y)+0.3*p.Z)
	}
	im.Points.Add(f)
	return im
}

// TestRenderFBParallelEquivalence pins the tile-parallel rasterizer's
// determinism contract: the framebuffer (color AND depth planes) is
// byte-identical at worker counts {1, 2, 4, 8}. GOMAXPROCS is raised so
// multi-worker frames truly interleave even on a one-core runner.
func TestRenderFBParallelEquivalence(t *testing.T) {
	r := testScene(t)
	prev := runtime.GOMAXPROCS(8)
	defer func() {
		runtime.GOMAXPROCS(prev)
		par.SetWorkers(0)
	}()
	par.SetWorkers(1)
	ref := r.RenderFB(200, 130)
	for _, w := range []int{2, 4, 8} {
		par.SetWorkers(w)
		got := r.RenderFB(200, 130)
		if !reflect.DeepEqual(ref.Color, got.Color) {
			diff := 0
			for i := range ref.Color {
				if ref.Color[i] != got.Color[i] {
					diff++
				}
			}
			t.Fatalf("workers=%d: %d/%d pixels differ from serial render", w, diff, len(ref.Color))
		}
		if !reflect.DeepEqual(ref.Depth, got.Depth) {
			t.Fatalf("workers=%d: depth buffer differs from serial render", w)
		}
	}
}

// TestRenderFBArenaReuse pins the frame-scratch hygiene contract: the
// pooled frameScratch/cmdChunk builders the first frame dirtied are
// recycled into later frames, so re-rendering the identical scene must
// reproduce the framebuffer byte-for-byte — and the first frame's
// planes, snapshotted between renders, must never be touched by a
// later frame (the framebuffer may not alias pooled scratch). Run
// under -race this also sweeps the chunked geometry phase for data
// races on the reused builders.
func TestRenderFBArenaReuse(t *testing.T) {
	r := testScene(t)
	par.SetWorkers(4)
	defer par.SetWorkers(0)
	first := r.RenderFB(200, 130)
	snapColor := append([]Color(nil), first.Color...)
	snapDepth := append([]float64(nil), first.Depth...)
	second := r.RenderFB(200, 130)
	if !reflect.DeepEqual(first.Color, second.Color) || !reflect.DeepEqual(first.Depth, second.Depth) {
		t.Fatal("re-render with recycled frame scratch differs from the first frame")
	}
	third := r.RenderFB(200, 130)
	if !reflect.DeepEqual(second.Color, third.Color) || !reflect.DeepEqual(second.Depth, third.Depth) {
		t.Fatal("third render with recycled frame scratch differs")
	}
	if !reflect.DeepEqual(first.Color, snapColor) || !reflect.DeepEqual(first.Depth, snapDepth) {
		t.Fatal("later frames mutated the first framebuffer — output aliases pooled scratch")
	}
}

// TestEmptySceneCameraGuard is the regression test for the empty-scene
// NaN camera: resetting with no visible actors (none at all, an invisible
// one, or a visible actor holding an empty mesh) must leave the camera
// finite and render the plain background.
func TestEmptySceneCameraGuard(t *testing.T) {
	finite := func(v vmath.Vec3) bool {
		ok := func(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
		return ok(v.X) && ok(v.Y) && ok(v.Z)
	}
	cases := map[string]func(*Renderer){
		"no-actors": func(r *Renderer) {},
		"invisible-actor": func(r *Renderer) {
			a := NewActor(data.NewPolyData())
			a.Visible = false
			r.AddActor(a)
		},
		"visible-empty-mesh": func(r *Renderer) {
			r.AddActor(NewActor(data.NewPolyData()))
		},
		"nil-volume-image": func(r *Renderer) {
			r.AddVolume(&VolumeActor{Visible: true})
		},
	}
	for name, setup := range cases {
		t.Run(name, func(t *testing.T) {
			r := NewRenderer()
			setup(r)
			if b := r.VisibleBounds(); !b.IsEmpty() {
				t.Fatalf("VisibleBounds = %+v, want empty", b)
			}
			r.ResetCamera()
			if !finite(r.Camera.Position) || !finite(r.Camera.FocalPoint) || !finite(r.Camera.ViewUp) {
				t.Fatalf("camera not finite after empty ResetCamera: %+v", r.Camera)
			}
			fb := r.RenderFB(32, 32)
			for i, c := range fb.Color {
				if c != r.Background {
					t.Fatalf("pixel %d = %+v, want background", i, c)
				}
			}
		})
	}
}

// TestResetToBoundsRejectsNonFinite guards the camera against NaN/Inf
// bounds directly.
func TestResetToBoundsRejectsNonFinite(t *testing.T) {
	c := NewCamera()
	before := *c
	c.ResetToBounds(vmath.AABB{Min: vmath.V(math.NaN(), 0, 0), Max: vmath.V(1, 1, 1)})
	if *c != before {
		t.Error("NaN bounds should leave the camera untouched")
	}
	c.ResetToBounds(vmath.AABB{Min: vmath.V(0, 0, 0), Max: vmath.V(math.Inf(1), 1, 1)})
	if *c != before {
		t.Error("infinite bounds should leave the camera untouched")
	}
}

// TestLookFromEmptyBoundsStaysFinite pins the LookFrom fallback.
func TestLookFromEmptyBoundsStaysFinite(t *testing.T) {
	c := NewCamera()
	c.LookFrom(vmath.V(1, 1, 1), vmath.Vec3{}, vmath.EmptyAABB())
	for _, f := range []float64{c.Position.X, c.Position.Y, c.Position.Z} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			t.Fatalf("LookFrom with empty bounds produced %+v", c.Position)
		}
	}
}
