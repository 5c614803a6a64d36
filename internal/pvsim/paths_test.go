package pvsim

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"chatvis/internal/data"
)

// twoDisplayScript colours a contour and a slice by the same array:
// the contour's var0 range is a single value, the slice's is wide, so
// the shared transfer function's range shows which rescale won. The
// slice faces the default camera.
const twoDisplayScript = `from paraview.simple import *
reader = LegacyVTKReader(FileNames=['ml-100.vtk'])
contour1 = Contour(Input=reader)
contour1.ContourBy = ['POINTS', 'var0']
contour1.Isosurfaces = [0.3]
slice1 = Slice(Input=reader, SliceType='Plane')
slice1.SliceType.Normal = [0.0, 0.0, 1.0]
renderView1 = GetActiveViewOrCreate('RenderView')
renderView1.ViewSize = [120, 80]
contour1Display = Show(contour1, renderView1)
slice1Display = Show(slice1, renderView1)
ColorBy(contour1Display, ('POINTS', 'var0'))
ColorBy(slice1Display, ('POINTS', 'var0'))
contour1Display.RescaleTransferFunctionToDataRange(True)
slice1Display.RescaleTransferFunctionToDataRange(True)
renderView1.ResetCamera()
SaveScreenshot('two.png', renderView1, ImageResolution=[120, 80])
`

// onlyShot returns the bytes of the single screenshot an engine wrote.
func onlyShot(t *testing.T, e *Engine, shots []string) []byte {
	t.Helper()
	if len(shots) != 1 {
		t.Fatalf("%d screenshots, want 1", len(shots))
	}
	return e.Rendered[shots[0]].Pix
}

// TestRescaleExtendIsOrderIndependent: RescaleTransferFunctionToDataRange
// (True) extends the shared range, as ParaView does, so the order of
// the rescale calls (which plan normalization does not keep) does not
// change the image on either execution path.
func TestRescaleExtendIsOrderIndependent(t *testing.T) {
	swapped := strings.Replace(twoDisplayScript,
		"contour1Display.RescaleTransferFunctionToDataRange(True)\nslice1Display.RescaleTransferFunctionToDataRange(True)",
		"slice1Display.RescaleTransferFunctionToDataRange(True)\ncontour1Display.RescaleTransferFunctionToDataRange(True)", 1)
	if swapped == twoDisplayScript {
		t.Fatal("swap did not apply")
	}
	a := testEngine(t)
	runScript(t, a, twoDisplayScript)
	want := onlyShot(t, a, a.Screenshots)

	b := NewEngine(a.DataDir, t.TempDir())
	runScript(t, b, swapped)
	if !bytes.Equal(onlyShot(t, b, b.Screenshots), want) {
		t.Error("swapping the rescale calls changed the interpreted image")
	}

	c := NewEngine(a.DataDir, t.TempDir())
	shots, err := c.ExecPlan(context.Background(), compilePlan(t, twoDisplayScript))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onlyShot(t, c, shots), want) {
		t.Error("the plan path renders the two displays differently")
	}
}

// TestRescaleWithoutExtendReplacesRange: a rescale without extend sets
// the range to this display's data alone, so the last one wins.
func TestRescaleWithoutExtendReplacesRange(t *testing.T) {
	script := strings.ReplaceAll(twoDisplayScript, "RescaleTransferFunctionToDataRange(True)", "RescaleTransferFunctionToDataRange()")
	e := testEngine(t)
	runScript(t, e, script)
	r := e.tfRanges["var0"]
	if r == nil || r.lo == r.hi {
		t.Fatalf("var0 range = %+v, want the slice's (wide) range", r)
	}
}

// TestWarmEngineRendersLikeCold: "incremental turns equal cold runs".
// A plan that colours without rescaling must not inherit the colour
// range an earlier plan left on the same engine.
func TestWarmEngineRendersLikeCold(t *testing.T) {
	// The first plan leaves var0 mapped over the contour's single value;
	// the second colours the slice by var0 without rescaling.
	first := compilePlan(t, strings.NewReplacer(
		"slice1Display = Show(slice1, renderView1)\n", "",
		"ColorBy(slice1Display, ('POINTS', 'var0'))\n", "",
		"slice1Display.RescaleTransferFunctionToDataRange(True)\n", "",
	).Replace(twoDisplayScript))
	second := compilePlan(t, strings.NewReplacer(
		"contour1Display = Show(contour1, renderView1)\n", "",
		"ColorBy(contour1Display, ('POINTS', 'var0'))\n", "",
		"contour1Display.RescaleTransferFunctionToDataRange(True)\n", "",
		"slice1Display.RescaleTransferFunctionToDataRange(True)\n", "",
	).Replace(twoDisplayScript))

	warm := testEngine(t)
	if _, err := warm.ExecPlan(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	warmShots, err := warm.ExecPlan(context.Background(), second)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewEngine(warm.DataDir, t.TempDir())
	coldShots, err := cold.ExecPlan(context.Background(), second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onlyShot(t, warm, warmShots), onlyShot(t, cold, coldShots)) {
		t.Error("the warm engine renders the plan differently from a cold one")
	}
}

// TestContentKeyCanonicalAcrossPaths: a stage built by the interpreter
// and the same stage built from its plan share one dataset-cache key,
// even where the plan canonicalizes 0.0 to 0: the plan path recomputes
// nothing the interpreter already computed.
func TestContentKeyCanonicalAcrossPaths(t *testing.T) {
	const script = `from paraview.simple import *
reader = LegacyVTKReader(FileNames=['ml-100.vtk'])
clip1 = Clip(Input=reader, ClipType='Plane')
clip1.ClipType.Origin = [0.1, 0.0, 0.0]
clip1.ClipType.Normal = [1.0, 0.0, 0.0]
renderView1 = GetActiveViewOrCreate('RenderView')
clip1Display = Show(clip1, renderView1)
renderView1.ResetCamera()
SaveScreenshot('clip.png', renderView1, ImageResolution=[80, 60])
`
	cache := data.NewCache(64 << 20)
	interp := testEngine(t)
	interp.DataCache = cache
	runScript(t, interp, script)
	if got := interp.Executions(); got != 2 {
		t.Fatalf("interpreter executed %d stages, want 2", got)
	}

	viaPlan := NewEngine(interp.DataDir, t.TempDir())
	viaPlan.DataCache = cache
	if _, err := viaPlan.ExecPlan(context.Background(), compilePlan(t, script)); err != nil {
		t.Fatal(err)
	}
	if got := viaPlan.Executions(); got != 0 {
		t.Errorf("plan path recomputed %d stages the interpreter had cached", got)
	}
}
