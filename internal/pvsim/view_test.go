package pvsim

import (
	"bytes"
	"fmt"
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
	interp := pypy.NewInterp(&out)
	simple := e.BuildSimpleModule()
	interp.RegisterModule(simple)
	if root, ok := interp.Modules["paraview"]; ok {
		simple.Attrs["paraview"] = root
	}
	if err := interp.Run(script); err != nil {
		return fmt.Errorf("%v\n%s", err, out.String())
	}
	return nil
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
			img, err := e.RenderViewImage(e.Views[0], 80, 60, "")
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
