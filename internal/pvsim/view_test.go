package pvsim

import (
	"bytes"
	"context"
	"fmt"
	"image"
	"strings"
	"sync"
	"testing"

	"chatvis/internal/data"
	"chatvis/internal/pypy"
)

// execScript interprets a script on e, returning the failure instead
// of ending the test, so it can run off the test goroutine.
func execScript(e *Engine, script string) error {
	var out bytes.Buffer
	if _, err := e.Run(context.Background(), pypy.NewInterp(&out), script); err != nil {
		return fmt.Errorf("%v\n%s", err, out.String())
	}
	return nil
}

// renderView renders a view at the given resolution and palette.
func renderView(e *Engine, view *Proxy, w, h int, palette string) (*image.RGBA, error) {
	sc, err := e.viewScene(view, w, h, palette)
	if err != nil {
		return nil, err
	}
	return e.renderScene(sc)
}

// TestTranslucentActorsRenderInPipelineOrder: two overlapping
// translucent displays blend in pipeline order, so every fresh engine
// renders the scene to the same bytes.
func TestTranslucentActorsRenderInPipelineOrder(t *testing.T) {
	script := strings.Replace(twoDisplayScript, "renderView1.ResetCamera()\n",
		"contour1Display.Opacity = 0.5\nslice1Display.Opacity = 0.5\nrenderView1.ResetCamera()\n", 1)
	first := testEngine(t)
	first.DataCache = data.NewCache(64 << 20)
	runScript(t, first, script)
	want := onlyShot(t, first, first.Screenshots)
	for i := 0; i < 63; i++ {
		e := NewEngine(first.DataDir, t.TempDir())
		e.DataCache = first.DataCache
		runScript(t, e, script)
		if !bytes.Equal(onlyShot(t, e, e.Screenshots), want) {
			t.Fatalf("render %d of the translucent scene differs from the first", i+2)
		}
	}
}

const clipScript = `from paraview.simple import *
reader = LegacyVTKReader(FileNames=['ml-100.vtk'])
clip1 = Clip(Input=reader, ClipType='Plane')
clip1.ClipType.Origin = [0.1, 0.0, 0.0]
clip1.ClipType.Normal = [1.0, 0.0, 0.0]
renderView1 = GetActiveViewOrCreate('RenderView')
clip1Display = Show(clip1, renderView1)
ColorBy(clip1Display, ('POINTS', 'var0'))
renderView1.ResetCamera()
SaveScreenshot('clip.png', renderView1, ImageResolution=[80, 60])
`

// TestSurfaceMemoSharedAcrossEngines: two engines sharing a DataCache
// render the same clip concurrently (run under -race). They render the
// bytes an uncached engine renders, the clip's stages execute once
// between them, and re-rendering takes the surface from the cache
// without executing anything.
func TestSurfaceMemoSharedAcrossEngines(t *testing.T) {
	cold := testEngine(t)
	runScript(t, cold, clipScript)
	want := onlyShot(t, cold, cold.Screenshots)

	cache := data.NewCache(64 << 20)
	var engines [2]*Engine
	for i := range engines {
		engines[i] = NewEngine(cold.DataDir, t.TempDir())
		engines[i].DataCache = cache
	}
	var wg sync.WaitGroup
	errs := make([]error, len(engines))
	for i, e := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = execScript(e, clipScript)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
	}
	for i, e := range engines {
		if !bytes.Equal(onlyShot(t, e, e.Screenshots), want) {
			t.Errorf("engine %d renders the clip differently from an uncached engine", i)
		}
	}
	executions := engines[0].Executions() + engines[1].Executions()
	if executions != 2 {
		t.Fatalf("the engines executed %d stages between them, want 2 (reader and clip once)", executions)
	}

	hits := cache.Stats().Hits
	images := make([][]byte, len(engines))
	for i, e := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			img, err := renderView(e, e.Views[0], 80, 60, "")
			errs[i] = err
			if err == nil {
				images[i] = img.Pix
			}
		}()
	}
	wg.Wait()
	for i := range engines {
		if errs[i] != nil {
			t.Fatalf("engine %d re-render: %v", i, errs[i])
		}
		if !bytes.Equal(images[i], want) {
			t.Errorf("engine %d re-renders the clip differently", i)
		}
	}
	if got := engines[0].Executions() + engines[1].Executions(); got != executions {
		t.Errorf("re-rendering executed %d more stages", got-executions)
	}
	if got := cache.Stats().Hits - hits; got != int64(len(engines)) {
		t.Errorf("re-rendering made %d cache hits, want %d (one surface lookup per engine)", got, len(engines))
	}
}

// TestHelperSetAfterShowRecomputes: setting a helper's property (the
// slice plane's normal) after the filter was shown recomputes the
// filter, so the screenshot equals the one of a script that set it
// first.
func TestHelperSetAfterShowRecomputes(t *testing.T) {
	const before = `from paraview.simple import *
reader = LegacyVTKReader(FileNames=['ml-100.vtk'])
slice1 = Slice(Input=reader)
renderView1 = GetActiveViewOrCreate('RenderView')
slice1.SliceType.Normal = [0.0, 0.0, 1.0]
d = Show(slice1, renderView1)
renderView1.ResetCamera()
SaveScreenshot('s.png', renderView1, ImageResolution=[80, 60])
`
	after := strings.Replace(before, "slice1.SliceType.Normal = [0.0, 0.0, 1.0]\nd = Show(slice1, renderView1)\n",
		"d = Show(slice1, renderView1)\nslice1.SliceType.Normal = [0.0, 0.0, 1.0]\n", 1)
	want := testEngine(t)
	runScript(t, want, before)
	got := NewEngine(want.DataDir, t.TempDir())
	runScript(t, got, after)
	if !bytes.Equal(onlyShot(t, got, got.Screenshots), onlyShot(t, want, want.Screenshots)) {
		t.Error("a plane normal set after Show is not in the screenshot")
	}
}
