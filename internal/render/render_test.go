package render

import (
	"image/color"
	"math"
	"math/rand"
	"testing"

	"chatvis/internal/data"
	"chatvis/internal/datagen"
	"chatvis/internal/filters"
	"chatvis/internal/vmath"
)

func TestCameraResetToBounds(t *testing.T) {
	c := NewCamera()
	b := vmath.AABB{Min: vmath.V(-1, -1, -1), Max: vmath.V(1, 1, 1)}
	c.ResetToBounds(b)
	if !c.FocalPoint.NearEq(vmath.V(0, 0, 0), 1e-12) {
		t.Errorf("focal = %v", c.FocalPoint)
	}
	// Bounding sphere radius sqrt(3); distance = r/sin(15 deg).
	want := math.Sqrt(3) / math.Sin(vmath.Radians(15))
	if math.Abs(c.Distance()-want) > 1e-9 {
		t.Errorf("distance = %v, want %v", c.Distance(), want)
	}
	// Default camera looks down -z, so it should sit at +z.
	if c.Position.Z <= 0 {
		t.Errorf("camera should stay on +z: %v", c.Position)
	}
}

func TestCameraLookFrom(t *testing.T) {
	c := NewCamera()
	b := vmath.AABB{Min: vmath.V(-1, -1, -1), Max: vmath.V(1, 1, 1)}
	c.LookFrom(vmath.V(1, 0, 0), vmath.Vec3{}, b) // look from +x
	if c.Position.X <= 1 {
		t.Errorf("camera should be at +x: %v", c.Position)
	}
	if math.Abs(c.Position.Y) > 1e-9 || math.Abs(c.Position.Z) > 1e-9 {
		t.Errorf("camera off axis: %v", c.Position)
	}
	dir := c.Direction()
	if !dir.NearEq(vmath.V(-1, 0, 0), 1e-9) {
		t.Errorf("direction = %v", dir)
	}
}

func TestCameraIsometric(t *testing.T) {
	c := NewCamera()
	b := vmath.AABB{Min: vmath.V(0, 0, 0), Max: vmath.V(2, 2, 2)}
	c.Isometric(b)
	d := c.Position.Sub(b.Center()).Norm()
	want := vmath.V(1, 1, 1).Norm()
	if !d.NearEq(want, 1e-9) {
		t.Errorf("isometric direction = %v", d)
	}
}

func TestCameraAzimuthElevationPreserveDistance(t *testing.T) {
	c := NewCamera()
	c.ResetToBounds(vmath.AABB{Min: vmath.V(-1, -1, -1), Max: vmath.V(1, 1, 1)})
	d0 := c.Distance()
	c.Azimuth(30)
	c.Elevation(-20)
	if math.Abs(c.Distance()-d0) > 1e-9 {
		t.Errorf("distance changed: %v -> %v", d0, c.Distance())
	}
}

func TestCameraZoom(t *testing.T) {
	c := NewCamera()
	d0 := c.Distance()
	c.Zoom(2)
	if math.Abs(c.Distance()-d0/2) > 1e-12 {
		t.Errorf("zoom distance = %v", c.Distance())
	}
	c.Zoom(0) // no-op
	if math.Abs(c.Distance()-d0/2) > 1e-12 {
		t.Error("zoom(0) should be ignored")
	}
}

func TestLookupTableCoolToWarm(t *testing.T) {
	l := NewCoolToWarm(0, 1)
	lo := l.Map(0)
	hi := l.Map(1)
	if lo.B < lo.R { // cool end is blue
		t.Errorf("low end not blue: %+v", lo)
	}
	if hi.R < hi.B { // warm end is red
		t.Errorf("high end not red: %+v", hi)
	}
	mid := l.Map(0.5)
	if math.Abs(mid.R-mid.G) > 1e-9 || math.Abs(mid.G-mid.B) > 1e-9 {
		t.Errorf("midpoint should be gray: %+v", mid)
	}
	// Clamping.
	if l.Map(-5) != lo || l.Map(99) != hi {
		t.Error("out-of-range values must clamp")
	}
	// NaN maps to NaN color.
	if l.Map(math.NaN()) != l.NaNColor {
		t.Error("NaN should map to NaNColor")
	}
}

func TestLookupTableRescale(t *testing.T) {
	l := NewCoolToWarm(0, 1)
	l.RescaleTo(100, 200)
	lo, hi := l.Range()
	if lo != 100 || hi != 200 {
		t.Errorf("range = %v..%v", lo, hi)
	}
	c150 := l.Map(150)
	if math.Abs(c150.R-c150.B) > 0.01 {
		t.Errorf("new midpoint not gray: %+v", c150)
	}
}

func TestOpacityFunction(t *testing.T) {
	o := NewDefaultOpacity(0, 10)
	if o.Map(0) != 0 || o.Map(10) != 1 {
		t.Error("endpoints wrong")
	}
	if math.Abs(o.Map(5)-0.5) > 1e-12 {
		t.Errorf("midpoint = %v", o.Map(5))
	}
	o.AddPoint(5, 0) // dip
	if o.Map(5) != 0 {
		t.Error("AddPoint should override interpolation at that x")
	}
	o.RescaleTo(0, 1)
	if lo, hi := o.Range(); lo != 0 || hi != 1 {
		t.Errorf("rescaled range = %v..%v", lo, hi)
	}
}

// triangleScene builds a renderer with a single red triangle facing the
// default camera.
func triangleScene() *Renderer {
	pd := data.NewPolyData()
	pd.AddPoint(vmath.V(-0.5, -0.5, 0))
	pd.AddPoint(vmath.V(0.5, -0.5, 0))
	pd.AddPoint(vmath.V(0, 0.5, 0))
	pd.AddTriangle(0, 1, 2)
	r := NewRenderer()
	a := NewActor(pd)
	a.SolidColor = Red
	r.AddActor(a)
	r.Background = White
	r.ResetCamera()
	return r
}

func countColored(fb *Framebuffer, bg Color) int {
	n := 0
	for _, c := range fb.Color {
		if c != bg {
			n++
		}
	}
	return n
}

func TestRenderTriangle(t *testing.T) {
	r := triangleScene()
	fb := r.RenderFB(100, 100)
	n := countColored(fb, White)
	if n < 100 {
		t.Fatalf("triangle rendered only %d pixels", n)
	}
	// Center pixel should be reddish (shaded red).
	c := fb.At(50, 55)
	if c.R < 0.5 || c.G > 0.3 || c.B > 0.3 {
		t.Errorf("center color = %+v, want red", c)
	}
	// Corner pixel stays background.
	if fb.At(1, 1) != White {
		t.Error("corner should be background")
	}
}

func TestRenderEmptySceneIsBackground(t *testing.T) {
	r := NewRenderer()
	r.Background = Color{0.1, 0.2, 0.3}
	fb := r.RenderFB(10, 10)
	for _, c := range fb.Color {
		if c != r.Background {
			t.Fatal("empty scene must be pure background")
		}
	}
}

func TestRenderDepthOrder(t *testing.T) {
	// Two overlapping triangles; the nearer (green) must win.
	pd1 := data.NewPolyData()
	pd1.AddPoint(vmath.V(-1, -1, 0))
	pd1.AddPoint(vmath.V(1, -1, 0))
	pd1.AddPoint(vmath.V(0, 1, 0))
	pd1.AddTriangle(0, 1, 2)
	pd2 := data.NewPolyData()
	pd2.AddPoint(vmath.V(-1, -1, 1)) // closer to default camera at +z
	pd2.AddPoint(vmath.V(1, -1, 1))
	pd2.AddPoint(vmath.V(0, 1, 1))
	pd2.AddTriangle(0, 1, 2)

	r := NewRenderer()
	r.Background = White
	red := NewActor(pd1)
	red.SolidColor = Red
	green := NewActor(pd2)
	green.SolidColor = Color{0, 1, 0}
	r.AddActor(red)
	r.AddActor(green)
	r.Camera.LookFrom(vmath.V(0, 0, 1), vmath.V(0, 1, 0), r.VisibleBounds())
	fb := r.RenderFB(80, 80)
	c := fb.At(40, 44)
	if c.G < 0.5 || c.R > 0.3 {
		t.Errorf("front triangle should win: %+v", c)
	}
}

func TestRenderScalarColoring(t *testing.T) {
	pd := data.NewPolyData()
	pd.AddPoint(vmath.V(-1, 0, 0))
	pd.AddPoint(vmath.V(1, 0, 0))
	pd.AddPoint(vmath.V(0, 1.5, 0))
	pd.AddTriangle(0, 1, 2)
	f := data.NewField("s", 1, 3)
	f.Data = []float64{0, 1, 0.5}
	pd.Points.Add(f)
	r := NewRenderer()
	r.Background = White
	a := NewActor(pd)
	a.ColorField = "s"
	a.LUT = NewCoolToWarm(0, 1)
	r.AddActor(a)
	r.ResetCamera()
	fb := r.RenderFB(120, 120)
	// Left side should be blue-ish, right side red-ish.
	var left, right Color
	found := 0
	for x := 0; x < 120; x++ {
		c := fb.At(x, 80)
		if c != White {
			if found == 0 {
				left = c
			}
			right = c
			found++
		}
	}
	if found < 20 {
		t.Fatalf("too few colored pixels: %d", found)
	}
	if left.B <= left.R {
		t.Errorf("left edge not blue: %+v", left)
	}
	if right.R <= right.B {
		t.Errorf("right edge not red: %+v", right)
	}
}

func TestRenderWireframeSparser(t *testing.T) {
	im := dataSphere(14)
	surf, err := filters.Contour(im, "dist", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mkR := func(rep Representation) int {
		r := NewRenderer()
		r.Background = White
		a := NewActor(surf)
		a.SolidColor = Red // distinguishable from the white background
		a.Rep = rep
		r.AddActor(a)
		r.ResetCamera()
		return countColored(r.RenderFB(150, 150), White)
	}
	solid := mkR(RepSurface)
	wire := mkR(RepWireframe)
	pts := mkR(RepPoints)
	if wire >= solid {
		t.Errorf("wireframe (%d px) should cover less than surface (%d px)", wire, solid)
	}
	if wire == 0 || pts == 0 {
		t.Error("wireframe/points rendered nothing")
	}
}

func dataSphere(n int) *data.ImageData {
	spacing := 2.0 / float64(n-1)
	im := data.NewImageData(n, n, n, vmath.V(-1, -1, -1), vmath.V(spacing, spacing, spacing))
	f := data.NewField("dist", 1, im.NumPoints())
	for i := 0; i < im.NumPoints(); i++ {
		f.SetScalar(i, im.Point(i).Len())
	}
	im.Points.Add(f)
	return im
}

func TestRenderVolume(t *testing.T) {
	im := datagen.MarschnerLobb(24)
	r := NewRenderer()
	r.Background = White
	r.AddVolume(NewVolumeActor(im, "var0"))
	r.ResetCamera()
	fb := r.RenderFB(80, 80)
	n := countColored(fb, White)
	if n < 400 {
		t.Fatalf("volume rendering touched only %d pixels", n)
	}
	// Center of image should have accumulated some color.
	c := fb.At(40, 40)
	if c == White {
		t.Error("volume invisible at image center")
	}
}

func TestRenderVolumeMissingFieldIsNoop(t *testing.T) {
	im := datagen.MarschnerLobb(8)
	r := NewRenderer()
	r.Background = White
	v := NewVolumeActor(im, "var0")
	v.Field = "missing"
	r.AddVolume(v)
	r.ResetCamera()
	fb := r.RenderFB(20, 20)
	if countColored(fb, White) != 0 {
		t.Error("missing field should render nothing")
	}
}

func TestRenderInvisibleActorSkipped(t *testing.T) {
	r := triangleScene()
	r.Actors[0].Visible = false
	fb := r.RenderFB(50, 50)
	if countColored(fb, White) != 0 {
		t.Error("invisible actor rendered")
	}
}

func TestVisibleBoundsUnion(t *testing.T) {
	r := NewRenderer()
	pd := data.NewPolyData()
	pd.AddPoint(vmath.V(5, 5, 5))
	pd.AddVert(0)
	r.AddActor(NewActor(pd))
	im := datagen.MarschnerLobb(4)
	r.AddVolume(NewVolumeActor(im, "var0"))
	b := r.VisibleBounds()
	if !b.Contains(vmath.V(5, 5, 5)) || !b.Contains(vmath.V(-1, -1, -1)) {
		t.Errorf("bounds = %v..%v", b.Min, b.Max)
	}
}

func TestRayBox(t *testing.T) {
	b := vmath.AABB{Min: vmath.V(0, 0, 0), Max: vmath.V(1, 1, 1)}
	t0, t1, hit := rayBox(vmath.V(-1, 0.5, 0.5), vmath.V(1, 0, 0), b)
	if !hit || math.Abs(t0-1) > 1e-12 || math.Abs(t1-2) > 1e-12 {
		t.Errorf("rayBox = %v %v %v", t0, t1, hit)
	}
	if _, _, hit := rayBox(vmath.V(-1, 5, 0.5), vmath.V(1, 0, 0), b); hit {
		t.Error("miss reported as hit")
	}
	// Parallel ray inside the slab.
	_, _, hit = rayBox(vmath.V(0.5, 0.5, -3), vmath.V(0, 0, 1), b)
	if !hit {
		t.Error("axis-parallel ray should hit")
	}
}

func TestRepresentationNames(t *testing.T) {
	if RepSurface.String() != "Surface" || RepWireframe.String() != "Wireframe" ||
		RepPoints.String() != "Points" || RepSurfaceWithEdges.String() != "Surface With Edges" {
		t.Error("representation names wrong")
	}
	if ParseRepresentation("Wireframe") != RepWireframe ||
		ParseRepresentation("bogus") != RepSurface ||
		ParseRepresentation("Points") != RepPoints {
		t.Error("ParseRepresentation wrong")
	}
}

// TestImageOpaque pins what EncodePNG relies on when it drops alpha:
// every Image pixel has alpha 255, and its RGB is the framebuffer
// colour clamped to 8 bits, also for colours outside [0,1].
func TestImageOpaque(t *testing.T) {
	fb := triangleScene().RenderFB(23, 17)
	fb.Color[0] = Color{R: -0.5, G: 1.5, B: 0.5}
	img := fb.Image()
	for y := 0; y < fb.H; y++ {
		for x := 0; x < fb.W; x++ {
			c := fb.Color[y*fb.W+x]
			want := color.RGBA{R: to8(c.R), G: to8(c.G), B: to8(c.B), A: 255}
			if got := img.RGBAAt(x, y); got != want {
				t.Fatalf("pixel (%d,%d) = %v, want %v", x, y, got, want)
			}
		}
	}
}

func TestSaveLoadPNG(t *testing.T) {
	r := triangleScene()
	img := r.Render(40, 30)
	dir := t.TempDir()
	path := dir + "/sub/shot.png"
	if err := SavePNG(path, img); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPNG(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Bounds().Dx() != 40 || got.Bounds().Dy() != 30 {
		t.Errorf("size = %v", got.Bounds())
	}
	if _, err := LoadPNG(dir + "/missing.png"); err == nil {
		t.Error("missing file should error")
	}
}

func TestFramebufferPrimitives(t *testing.T) {
	fb := NewFramebuffer(20, 20, Black)
	fb.Line(vert{x: 0, y: 10, z: 0, c: White}, vert{x: 19, y: 10, z: 0, c: White}, 1)
	n := 0
	for x := 0; x < 20; x++ {
		if fb.At(x, 10) == White {
			n++
		}
	}
	if n < 19 {
		t.Errorf("line drew %d pixels", n)
	}
	fb.Point(vert{x: 5, y: 5, z: 0, c: Red}, 3)
	if fb.At(5, 5) != Red || fb.At(6, 6) != Red {
		t.Error("point not drawn")
	}
	// Out-of-bounds writes must not panic.
	fb.set(-1, -1, 0, White)
	fb.set(100, 100, 0, White)
}

// TestRenderFaceOnPlaneNotClipped: a planar quad seen face-on has no
// depth extent; the clipping range must still enclose it, whatever its
// offset along the view axis.
func TestRenderFaceOnPlaneNotClipped(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		z := rng.Float64()*2 - 1
		x0, x1 := -0.1-rng.Float64(), 0.1+rng.Float64()
		y0, y1 := -0.1-rng.Float64(), 0.1+rng.Float64()
		pd := data.NewPolyData()
		pd.AddPoint(vmath.V(x0, y0, z))
		pd.AddPoint(vmath.V(x1, y0, z))
		pd.AddPoint(vmath.V(x1, y1, z))
		pd.AddPoint(vmath.V(x0, y1, z))
		pd.AddTriangle(0, 1, 2)
		pd.AddTriangle(0, 2, 3)
		r := NewRenderer()
		r.Background = White
		r.AddActor(NewActor(pd)).SolidColor = Red
		dir := float64(1 - 2*(i%2)) // alternate +z and -z
		r.Camera.LookFrom(vmath.V(0, 0, dir), vmath.V(0, 1, 0), r.VisibleBounds())
		if n := countColored(r.RenderFB(64, 48), White); n == 0 {
			t.Fatalf("face-on quad at z=%v, x=[%v,%v], y=[%v,%v], view %+v rendered blank",
				z, x0, x1, y0, y1, dir)
		}
	}
}

// TestClamp01MatchesMathMinMax pins Color.Scale's clamp to the
// math.Max(0, math.Min(1, v)) it replaced, bit for bit.
func TestClamp01MatchesMathMinMax(t *testing.T) {
	for _, v := range []float64{math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 0.5, math.Nextafter(1, 0), 1, math.Nextafter(1, 2), 7, -1e-300, -3} {
		want := math.Max(0, math.Min(1, v))
		if got := clamp01(v); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("clamp01(%v) = %v (%#x), want %v (%#x)", v, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestMinMax3MatchMath pins the triangle bounding box's min3 and max3 to
// math.Min and math.Max on the values they see (no NaN): after flooring
// or ceiling to an int, the results agree.
func TestMinMax3MatchMath(t *testing.T) {
	vals := []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, -0.5, 0.5, 3.25, -7.75, 1e300}
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				if got, want := int(math.Floor(min3(a, b, c))), int(math.Floor(math.Min(a, math.Min(b, c)))); got != want {
					t.Errorf("min3(%v, %v, %v) floors to %d, math.Min to %d", a, b, c, got, want)
				}
				if got, want := int(math.Ceil(max3(a, b, c))), int(math.Ceil(math.Max(a, math.Max(b, c)))); got != want {
					t.Errorf("max3(%v, %v, %v) ceils to %d, math.Max to %d", a, b, c, got, want)
				}
			}
		}
	}
}
