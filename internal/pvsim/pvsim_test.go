package pvsim

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"chatvis/internal/data"
	"chatvis/internal/datagen"
	"chatvis/internal/filters"
	"chatvis/internal/pypy"
	"chatvis/internal/vmath"
	"chatvis/internal/vtkio"
)

func testEngine(t *testing.T) *Engine {
	t.Helper()
	dataDir := t.TempDir()
	if err := vtkio.SaveLegacyVTK(filepath.Join(dataDir, "ml-100.vtk"),
		datagen.MarschnerLobb(16), "ml"); err != nil {
		t.Fatal(err)
	}
	if err := vtkio.SaveExodus(filepath.Join(dataDir, "disk.ex2"),
		datagen.DiskFlow(5, 16, 5), "disk"); err != nil {
		t.Fatal(err)
	}
	return NewEngine(dataDir, t.TempDir())
}

func mustConstruct(t *testing.T, e *Engine, class string, kwargs map[string]pypy.Value) *Proxy {
	t.Helper()
	v, err := e.construct(class, nil, kwargs)
	if err != nil {
		t.Fatalf("construct %s: %v", class, err)
	}
	return v.(*Proxy)
}

func TestProxyPropertyValidation(t *testing.T) {
	e := testEngine(t)
	glyph := mustConstruct(t, e, "Glyph", nil)
	// Known property: settable and readable.
	if err := glyph.SetAttr("ScaleFactor", pypy.Float(0.5)); err != nil {
		t.Fatal(err)
	}
	v, err := glyph.GetAttr("ScaleFactor")
	if err != nil || v.(pypy.Float) != 0.5 {
		t.Fatalf("ScaleFactor = %v, %v", v, err)
	}
	// Unknown property: AttributeError naming the class, both directions.
	err = glyph.SetAttr("Scalars", pypy.Int(1))
	pe, ok := err.(*pypy.PyError)
	if !ok || pe.Kind != "AttributeError" ||
		!strings.Contains(pe.Msg, "'Glyph'") || !strings.Contains(pe.Msg, "'Scalars'") {
		t.Fatalf("err = %v", err)
	}
	if _, err := glyph.GetAttr("Scalars"); err == nil {
		t.Fatal("read of unknown property should fail")
	}
	// Methods resolve to bound callables.
	m, err := glyph.GetAttr("UpdatePipeline")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*pypy.NativeFunc); !ok {
		t.Fatalf("UpdatePipeline is %T", m)
	}
	if glyph.Repr() == "" || glyph.Type() != "Glyph" {
		t.Error("identity accessors broken")
	}
}

func TestConstructKwargsAndActiveSource(t *testing.T) {
	e := testEngine(t)
	reader := mustConstruct(t, e, "LegacyVTKReader", map[string]pypy.Value{
		"FileNames":        &pypy.List{Items: []pypy.Value{pypy.Str("ml-100.vtk")}},
		"registrationName": pypy.Str("ml-100.vtk"),
	})
	if reader.RegName != "ml-100.vtk" {
		t.Errorf("RegName = %q", reader.RegName)
	}
	if e.ActiveSource != reader {
		t.Error("constructor should set the active source")
	}
	// Filter without Input uses the active source implicitly.
	contour := mustConstruct(t, e, "Contour", nil)
	if contour.Input != reader {
		t.Error("implicit Input from active source missing")
	}
	// Bad Input type is rejected.
	if _, err := e.construct("Contour", nil, map[string]pypy.Value{
		"Input": pypy.Str("nope"),
	}); err == nil {
		t.Error("string Input should error")
	}
	// Unknown helper name is rejected.
	if _, err := e.construct("Slice", nil, map[string]pypy.Value{
		"SliceType": pypy.Str("Hyperboloid"),
	}); err == nil {
		t.Error("unknown SliceType should error")
	}
}

func TestDatasetComputationAndCaching(t *testing.T) {
	e := testEngine(t)
	reader := mustConstruct(t, e, "LegacyVTKReader", map[string]pypy.Value{
		"FileNames": &pypy.List{Items: []pypy.Value{pypy.Str("ml-100.vtk")}},
	})
	contour := mustConstruct(t, e, "Contour", map[string]pypy.Value{
		"Input":       reader,
		"Isosurfaces": &pypy.List{Items: []pypy.Value{pypy.Float(0.5)}},
	})
	ds1, err := e.Dataset(contour)
	if err != nil {
		t.Fatal(err)
	}
	if ds1.NumPoints() == 0 {
		t.Fatal("empty contour")
	}
	// Second fetch is cached (same pointer).
	ds2, _ := e.Dataset(contour)
	if ds1 != ds2 {
		t.Error("dataset should be cached")
	}
	// Changing a property dirties the proxy and recomputes.
	if err := contour.SetAttr("Isosurfaces", &pypy.List{Items: []pypy.Value{pypy.Float(0.8)}}); err != nil {
		t.Fatal(err)
	}
	ds3, err := e.Dataset(contour)
	if err != nil {
		t.Fatal(err)
	}
	if ds3 == ds1 {
		t.Error("property change must invalidate the cache")
	}
	// Changing an upstream property dirties downstream proxies too.
	ds4, _ := e.Dataset(contour)
	reader.markDirty()
	ds5, err := e.Dataset(contour)
	if err != nil {
		t.Fatal(err)
	}
	if ds4 == ds5 {
		t.Error("upstream invalidation must propagate")
	}
}

func TestMultiValueContourMerges(t *testing.T) {
	e := testEngine(t)
	reader := mustConstruct(t, e, "LegacyVTKReader", map[string]pypy.Value{
		"FileNames": &pypy.List{Items: []pypy.Value{pypy.Str("ml-100.vtk")}},
	})
	single := mustConstruct(t, e, "Contour", map[string]pypy.Value{
		"Input":       reader,
		"Isosurfaces": &pypy.List{Items: []pypy.Value{pypy.Float(0.5)}},
	})
	double := mustConstruct(t, e, "Contour", map[string]pypy.Value{
		"Input": reader,
		"Isosurfaces": &pypy.List{Items: []pypy.Value{
			pypy.Float(0.4), pypy.Float(0.6),
		}},
	})
	dsS, err := e.Dataset(single)
	if err != nil {
		t.Fatal(err)
	}
	dsD, err := e.Dataset(double)
	if err != nil {
		t.Fatal(err)
	}
	if dsD.NumPoints() <= dsS.NumPoints() {
		t.Errorf("two isosurfaces (%d pts) should exceed one (%d pts)",
			dsD.NumPoints(), dsS.NumPoints())
	}
	// Interpolated scalars on the merged surface stay at their isovalues.
	f := dsD.PointData().Get("var0")
	for i := 0; i < f.NumTuples(); i++ {
		v := f.Scalar(i)
		if math.Abs(v-0.4) > 1e-9 && math.Abs(v-0.6) > 1e-9 {
			t.Fatalf("merged contour scalar %v not at either isovalue", v)
		}
	}
}

func TestPlaneHelperRoundTrip(t *testing.T) {
	e := testEngine(t)
	slice := mustConstruct(t, e, "Slice", map[string]pypy.Value{"SliceType": pypy.Str("Plane")})
	helper, err := slice.GetAttr("SliceType")
	if err != nil {
		t.Fatal(err)
	}
	hp := helper.(*Proxy)
	if err := hp.SetAttr("Origin", &pypy.List{Items: []pypy.Value{
		pypy.Float(1), pypy.Float(2), pypy.Float(3)}}); err != nil {
		t.Fatal(err)
	}
	plane, err := planeFromHelper(hp)
	if err != nil {
		t.Fatal(err)
	}
	if !plane.Origin.NearEq(vmath.V(1, 2, 3), 1e-12) {
		t.Errorf("origin = %v", plane.Origin)
	}
	if _, err := planeFromHelper(pypy.Str("not a plane")); err == nil {
		t.Error("non-proxy should error")
	}
	// Zero normal falls back to +x.
	hp2 := e.newProxy(e.schema("Plane"))
	hp2.Props["Normal"] = &pypy.List{Items: []pypy.Value{pypy.Float(0), pypy.Float(0), pypy.Float(0)}}
	plane2, err := planeFromHelper(hp2)
	if err != nil {
		t.Fatal(err)
	}
	if !plane2.Normal.NearEq(vmath.V(1, 0, 0), 1e-12) {
		t.Errorf("fallback normal = %v", plane2.Normal)
	}
}

func TestViewCameraRoundTrip(t *testing.T) {
	e := testEngine(t)
	viewV, _ := e.createView()
	view := viewV.(*Proxy)
	cam := e.cameraFromView(view)
	cam.Position = vmath.V(5, 6, 7)
	cam.ViewUp = vmath.V(0, 0, 1)
	e.cameraToView(cam, view)
	got := e.cameraFromView(view)
	if !got.Position.NearEq(vmath.V(5, 6, 7), 1e-12) {
		t.Errorf("position = %v", got.Position)
	}
	if !got.ViewUp.NearEq(vmath.V(0, 0, 1), 1e-12) {
		t.Errorf("up = %v", got.ViewUp)
	}
}

func TestLookFromAndResetCamera(t *testing.T) {
	e := testEngine(t)
	reader := mustConstruct(t, e, "LegacyVTKReader", map[string]pypy.Value{
		"FileNames": &pypy.List{Items: []pypy.Value{pypy.Str("ml-100.vtk")}},
	})
	viewV, _ := e.createView()
	view := viewV.(*Proxy)
	if _, err := e.show([]pypy.Value{reader, view}, nil); err != nil {
		t.Fatal(err)
	}
	e.lookFrom(view, vmath.V(1, 0, 0))
	cam := e.cameraFromView(view)
	if cam.Position.X <= 1 {
		t.Errorf("camera should sit at +x beyond the data: %v", cam.Position)
	}
	if math.Abs(cam.Position.Y) > 1e-9 || math.Abs(cam.Position.Z) > 1e-9 {
		t.Errorf("camera off axis: %v", cam.Position)
	}
	// ResetCamera keeps direction but refits distance.
	e.resetCamera(view)
	cam2 := e.cameraFromView(view)
	if !cam2.Direction().NearEq(cam.Direction(), 1e-9) {
		t.Error("ResetCamera changed the view direction")
	}
}

func TestTransferFunctionRegistryRanges(t *testing.T) {
	e := testEngine(t)
	reader := mustConstruct(t, e, "ExodusIIReader", map[string]pypy.Value{
		"FileName": pypy.Str("disk.ex2"),
	})
	ds, err := e.Dataset(reader)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := e.tfRangeFor("Temp", ds)
	wantLo, wantHi := data.FieldRange(ds, "Temp")
	if lo != wantLo || hi != wantHi {
		t.Errorf("range = %v..%v, want %v..%v", lo, hi, wantLo, wantHi)
	}
	// Registered ranges are sticky until rescaled.
	lo2, hi2 := e.tfRangeFor("Temp", ds)
	if lo2 != lo || hi2 != hi {
		t.Error("range should be cached")
	}
	// lutFor maps the low end to cool, high end to warm.
	lut := e.lutFor("Temp", ds)
	cLow := lut.Map(lo)
	cHigh := lut.Map(hi)
	if cLow.B <= cLow.R || cHigh.R <= cHigh.B {
		t.Errorf("default cool-to-warm broken: %+v %+v", cLow, cHigh)
	}
	// Explicit RGBPoints override the default.
	tfp := e.newProxy(e.schema("PVLookupTable"))
	tfp.Props["RGBPoints"] = listOf(0, 0, 0, 0, 1, 1, 1, 1)
	e.colorTFs["Temp"] = tfp
	lut2 := e.lutFor("Temp", ds)
	if got := lut2.Map(0); got.R != 0 || got.G != 0 || got.B != 0 {
		t.Errorf("custom LUT low = %+v", got)
	}
}

func TestOutlineOf(t *testing.T) {
	b := vmath.AABB{Min: vmath.V(0, 0, 0), Max: vmath.V(1, 2, 3)}
	pd := outlineOf(b)
	if pd.NumPoints() != 8 || len(pd.Lines) != 12 {
		t.Fatalf("outline = %d pts %d lines", pd.NumPoints(), len(pd.Lines))
	}
	bounds := pd.Bounds()
	if !bounds.Min.NearEq(b.Min, 1e-12) || !bounds.Max.NearEq(b.Max, 1e-12) {
		t.Error("outline bounds mismatch")
	}
	// Total edge length of a box: 4*(dx+dy+dz).
	total := 0.0
	for _, l := range pd.Lines {
		total += pd.Pts[l[0]].Dist(pd.Pts[l[1]])
	}
	if math.Abs(total-4*(1+2+3)) > 1e-9 {
		t.Errorf("edge length sum = %v", total)
	}
}

// TestImageToUGridVolume: a clip that keeps a whole image turns it into
// an unstructured grid of its voxels' tetrahedra, with the point data.
func TestImageToUGridVolume(t *testing.T) {
	im := data.NewImageData(3, 3, 3, vmath.V(0, 0, 0), vmath.V(1, 1, 1))
	f := data.NewField("s", 1, im.NumPoints())
	for i := range f.Data {
		f.Data[i] = float64(i)
	}
	im.Points.Add(f)
	keepAll := vmath.NewPlane(vmath.V(-1, 0, 0), vmath.V(1, 0, 0))
	ug, err := filters.ClipVolume(context.Background(), im, keepAll)
	if err != nil {
		t.Fatal(err)
	}
	if ug.NumCells() != 8*6 || ug.NumPoints() != im.NumPoints() {
		t.Fatalf("cells, points = %d, %d; want 48 tets (8 voxels) over %d points",
			ug.NumCells(), ug.NumPoints(), im.NumPoints())
	}
	s := ug.Points.Get("s")
	if s == nil {
		t.Fatal("point data lost")
	}
	for i, p := range ug.Pts {
		if want := float64(im.Index(int(p.X), int(p.Y), int(p.Z))); s.Data[i] != want {
			t.Fatalf("s at %v = %v, want %v", p, s.Data[i], want)
		}
	}
}

func TestSeedsFromHelperDefaults(t *testing.T) {
	e := testEngine(t)
	disk := datagen.DiskFlow(4, 8, 4)
	seeds, err := e.seedsFromHelper(nil, disk)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 100 {
		t.Errorf("default seeds = %d", len(seeds))
	}
	helper := e.newProxy(e.schema("Point Cloud"))
	helper.Props["NumberOfPoints"] = pypy.Int(7)
	helper.Props["Center"] = listOf(1, 0, 1)
	helper.Props["Radius"] = pypy.Float(0.25)
	seeds, err = e.seedsFromHelper(helper, disk)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 7 {
		t.Errorf("seeds = %d", len(seeds))
	}
	for _, s := range seeds {
		if s.Dist(vmath.V(1, 0, 1)) > 0.25+1e-9 {
			t.Fatalf("seed %v outside configured sphere", s)
		}
	}
}

func TestShowRequiresPipelineProxy(t *testing.T) {
	e := testEngine(t)
	viewV, _ := e.createView()
	if _, err := e.show([]pypy.Value{viewV, viewV}, nil); err == nil {
		t.Error("Show(view) should be rejected")
	}
}

func TestRenderViewImageBackgroundPalette(t *testing.T) {
	e := testEngine(t)
	reader := mustConstruct(t, e, "LegacyVTKReader", map[string]pypy.Value{
		"FileNames": &pypy.List{Items: []pypy.Value{pypy.Str("ml-100.vtk")}},
	})
	contour := mustConstruct(t, e, "Contour", map[string]pypy.Value{
		"Input":       reader,
		"Isosurfaces": &pypy.List{Items: []pypy.Value{pypy.Float(0.5)}},
	})
	viewV, _ := e.createView()
	view := viewV.(*Proxy)
	if _, err := e.show([]pypy.Value{contour, view}, nil); err != nil {
		t.Fatal(err)
	}
	e.resetCamera(view)
	white, err := renderView(e, view, 60, 40, "WhiteBackground")
	if err != nil {
		t.Fatal(err)
	}
	r, g, b, _ := white.At(0, 0).RGBA()
	if r != 0xffff || g != 0xffff || b != 0xffff {
		t.Errorf("white palette corner = %v %v %v", r, g, b)
	}
	def, err := renderView(e, view, 60, 40, "")
	if err != nil {
		t.Fatal(err)
	}
	r2, _, b2, _ := def.At(0, 0).RGBA()
	if r2 == 0xffff && b2 == 0xffff {
		t.Error("default palette should be ParaView gray, not white")
	}
}

func TestRescaledRGBPoints(t *testing.T) {
	pts := []float64{0, 0, 0, 1, 1, 1, 0, 0}
	v := rescaledRGBPoints(pts, 10, 20)
	out := valueFloats(v)
	if out[0] != 10 || out[4] != 20 {
		t.Errorf("rescaled xs = %v %v", out[0], out[4])
	}
	if out[1] != 0 || out[5] != 1 {
		t.Error("colors must be preserved")
	}
	// Degenerate inputs pass through.
	if got := valueFloats(rescaledRGBPoints([]float64{1, 2}, 0, 1)); len(got) != 2 {
		t.Error("short input should pass through")
	}
}

func TestPropHelpers(t *testing.T) {
	e := testEngine(t)
	p := e.newProxy(e.schema("Tube"))
	p.Props["Radius"] = pypy.Int(3)
	if propFloat(p, "Radius", 0) != 3 {
		t.Error("propFloat on Int")
	}
	if propFloat(p, "Missing", 7) != 7 {
		t.Error("propFloat default")
	}
	p.Props["Capping"] = pypy.Bool(false)
	if propBool(p, "Capping", true) {
		t.Error("propBool false")
	}
	p.Props["Capping"] = pypy.Float(1)
	if !propBool(p, "Capping", false) {
		t.Error("propBool float truthy")
	}
	assoc, array := valueAssoc(&pypy.Tuple{Items: []pypy.Value{pypy.Str("POINTS"), pypy.Str("V")}})
	if assoc != "POINTS" || array != "V" {
		t.Errorf("valueAssoc = %q %q", assoc, array)
	}
	assoc, array = valueAssoc(pypy.Str("Temp"))
	if assoc != "POINTS" || array != "Temp" {
		t.Errorf("bare-string assoc = %q %q", assoc, array)
	}
	if fs := valueFloats(pypy.Float(2.5)); len(fs) != 1 || fs[0] != 2.5 {
		t.Errorf("valueFloats scalar = %v", fs)
	}
}

func TestDeleteRemovesFromPipeline(t *testing.T) {
	e := testEngine(t)
	mod := e.BuildSimpleModule()
	deleteFn := mod.Attrs["Delete"].(*pypy.NativeFunc)
	reader := mustConstruct(t, e, "LegacyVTKReader", nil)
	if len(e.Pipeline) != 1 {
		t.Fatal("pipeline should contain the reader")
	}
	if _, err := deleteFn.Fn(nil, []pypy.Value{reader}, nil); err != nil {
		t.Fatal(err)
	}
	if len(e.Pipeline) != 0 {
		t.Error("Delete should remove the proxy")
	}
	if e.ActiveSource != nil {
		t.Error("Delete should clear the active source")
	}
}

func TestAPIReference(t *testing.T) {
	e := testEngine(t)
	ref := e.APIReference()
	if len(ref.Classes) < 15 {
		t.Fatalf("classes = %d", len(ref.Classes))
	}
	if len(ref.Functions) < 20 {
		t.Fatalf("functions = %d", len(ref.Functions))
	}
	// The documented surface matches runtime validation: every listed
	// property really is settable, and the paper's hallucinated names are
	// absent.
	if !ref.HasProperty("Glyph", "OrientationArray") {
		t.Error("Glyph.OrientationArray should be documented")
	}
	if ref.HasProperty("Glyph", "Scalars") {
		t.Error("Glyph.Scalars must not exist (the GPT-4 hallucination)")
	}
	if !ref.HasProperty("Clip", "Invert") || ref.HasProperty("Clip", "InsideOut") {
		t.Error("Clip property surface wrong")
	}
	if !ref.HasProperty("RenderView", "ResetActiveCameraToPositiveX") {
		t.Error("view methods should be documented")
	}
	if _, ok := ref.Lookup("NoSuchClass"); ok {
		t.Error("unknown class lookup should fail")
	}
	text := ref.Format()
	for _, want := range []string{"StreamTracer", "SaveScreenshot", ".Isosurfaces", "Tube (filter)"} {
		if !strings.Contains(text, want) {
			t.Errorf("formatted reference missing %q", want)
		}
	}
	// Runtime agreement: every documented property of Tube is settable.
	tube := mustConstruct(t, e, "Tube", nil)
	cr, _ := ref.Lookup("Tube")
	for _, p := range cr.Props {
		if err := tube.SetAttr(p.Name, pypy.Int(1)); err != nil {
			t.Errorf("documented property Tube.%s rejected: %v", p.Name, err)
		}
	}
}
