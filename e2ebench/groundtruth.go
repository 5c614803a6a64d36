package main

import (
	"fmt"
	"image"
	"os"
	"path/filepath"
	"sync/atomic"

	"chatvis/internal/data"
	"chatvis/internal/imgcmp"
	"chatvis/internal/pvpython"
)

// groundTruther renders reference scripts in-process with the same
// engine the daemon runs, against the daemon's own generated datasets,
// and judges screenshots with the eval harness's image rule.
type groundTruther struct {
	dataDir string
	outDir  string
	cache   *data.Cache
	seq     atomic.Int64
}

func newGroundTruther(dataDir, outDir string) *groundTruther {
	return &groundTruther{dataDir: dataDir, outDir: outDir, cache: data.NewCache(256 << 20)}
}

// render runs one ground-truth script and returns its last screenshot.
func (g *groundTruther) render(script string) (image.Image, error) {
	out := filepath.Join(g.outDir, fmt.Sprint(g.seq.Add(1)))
	defer os.RemoveAll(out)
	runner := &pvpython.Runner{DataDir: g.dataDir, OutDir: out, Cache: g.cache}
	res := runner.Exec(script)
	if !res.OK() || len(res.Screenshots) == 0 {
		return nil, fmt.Errorf("ground truth failed to render:\n%s", res.Output)
	}
	img := res.Engine.Rendered[res.Screenshots[len(res.Screenshots)-1]]
	if img == nil {
		return nil, fmt.Errorf("ground truth rendered nothing")
	}
	return img, nil
}

// matches reports whether img shows the ground truth's visualization.
func (g *groundTruther) matches(script string, img image.Image) error {
	ref, err := g.render(script)
	if err != nil {
		return err
	}
	m, err := imgcmp.Compare(ref, img)
	if err != nil {
		return fmt.Errorf("comparing with ground truth: %w", err)
	}
	if !imgcmp.MatchesGroundTruth(m, ref, img) {
		return fmt.Errorf("screenshot does not match ground truth (SSIM %.3f, RMSE %.3f)", m.SSIM, m.RMSE)
	}
	return nil
}
