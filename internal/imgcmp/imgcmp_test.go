package imgcmp

import (
	"image"
	"image/color"
	"math"
	"math/rand"
	"testing"
)

func solid(w, h int, c color.RGBA) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			img.SetRGBA(x, y, c)
		}
	}
	return img
}

func noisy(w, h int, seed int64) *image.RGBA {
	rng := rand.New(rand.NewSource(seed))
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			img.SetRGBA(x, y, color.RGBA{
				uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)), 255,
			})
		}
	}
	return img
}

func TestIdenticalImages(t *testing.T) {
	a := noisy(64, 64, 1)
	m, err := Compare(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if m.RMSE != 0 || m.DiffRatio != 0 {
		t.Errorf("metrics = %+v", m)
	}
	if !math.IsInf(m.PSNR, 1) {
		t.Errorf("PSNR = %v", m.PSNR)
	}
	if m.SSIM < 0.999 {
		t.Errorf("SSIM = %v", m.SSIM)
	}
}

func TestCompletelyDifferentImages(t *testing.T) {
	a := solid(64, 64, color.RGBA{0, 0, 0, 255})
	b := solid(64, 64, color.RGBA{255, 255, 255, 255})
	m, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.RMSE < 0.99 || m.DiffRatio != 1 {
		t.Errorf("metrics = %+v", m)
	}
	if m.SSIM > 0.1 {
		t.Errorf("SSIM = %v", m.SSIM)
	}
}

func TestSmallPerturbation(t *testing.T) {
	a := noisy(64, 64, 2)
	b := image.NewRGBA(a.Bounds())
	copy(b.Pix, a.Pix)
	// Flip a small patch.
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			b.SetRGBA(x, y, color.RGBA{255, 0, 0, 255})
		}
	}
	m, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	wantDiff := 64.0 / (64 * 64)
	if math.Abs(m.DiffRatio-wantDiff) > 0.01 {
		t.Errorf("DiffRatio = %v, want ~%v", m.DiffRatio, wantDiff)
	}
	if m.RMSE == 0 || m.RMSE > 0.5 {
		t.Errorf("RMSE = %v", m.RMSE)
	}
}

func TestSizeMismatch(t *testing.T) {
	if _, err := Compare(solid(10, 10, color.RGBA{}), solid(20, 10, color.RGBA{})); err == nil {
		t.Error("size mismatch should error")
	}
}

// scene draws a w x h image with background bg and a rectangle of color c.
func scene(w, h int, bg, c color.RGBA, x0, y0, x1, y1 int) *image.RGBA {
	img := solid(w, h, bg)
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			img.SetRGBA(x, y, c)
		}
	}
	return img
}

func TestMatchesGroundTruth(t *testing.T) {
	white := color.RGBA{255, 255, 255, 255}
	gray := color.RGBA{100, 100, 110, 255}
	red := color.RGBA{200, 30, 30, 255}

	gt := scene(64, 64, white, red, 16, 16, 48, 48)
	m, _ := Compare(gt, gt)
	if !MatchesGroundTruth(m, gt, gt) {
		t.Error("identical images must match")
	}
	// Blank candidate against a real ground truth: reject.
	blank := solid(64, 64, white)
	mb, _ := Compare(gt, blank)
	if MatchesGroundTruth(mb, gt, blank) {
		t.Error("blank image must not match")
	}
	// Same object, different background and slightly different zoom
	// (the paper's GPT-4 isosurface case): accept via mask overlap.
	zoomed := scene(64, 64, gray, red, 12, 12, 52, 52)
	mz, _ := Compare(gt, zoomed)
	if !MatchesGroundTruth(mz, gt, zoomed) {
		t.Error("same object with different background/zoom should match")
	}
	// Object in a completely different place: reject (masks disjoint).
	elsewhere := scene(64, 64, white, red, 0, 0, 12, 12)
	me, _ := Compare(gt, elsewhere)
	if MatchesGroundTruth(me, gt, elsewhere) {
		t.Error("disjoint object must not match")
	}
	// Thin-line rendering (contour lines): identical must match even
	// though foreground is a tiny fraction of the image.
	lines := scene(64, 64, white, red, 30, 0, 32, 64)
	ml, _ := Compare(lines, lines)
	if !MatchesGroundTruth(ml, lines, lines) {
		t.Error("identical thin-line images must match")
	}
}

func TestForegroundMaskAndIoU(t *testing.T) {
	white := color.RGBA{255, 255, 255, 255}
	red := color.RGBA{255, 0, 0, 255}
	a := scene(32, 32, white, red, 0, 0, 16, 32)
	b := scene(32, 32, white, red, 8, 0, 24, 32)
	maskA, fracA := ForegroundMask(a)
	if fracA != 0.5 {
		t.Errorf("fracA = %v", fracA)
	}
	maskB, _ := ForegroundMask(b)
	iou := MaskIoU(maskA, maskB)
	// Overlap 8 cols of 24 total covered -> 1/3.
	if iou < 0.32 || iou > 0.35 {
		t.Errorf("IoU = %v, want ~1/3", iou)
	}
	if MaskIoU(maskA, make([]bool, 10)) != 0 {
		t.Error("mismatched mask sizes should be 0")
	}
	empty := make([]bool, len(maskA))
	if MaskIoU(empty, empty) != 1 {
		t.Error("two empty masks are identical")
	}
}

func TestSSIMSensitiveToStructure(t *testing.T) {
	// Same mean, different structure: SSIM should drop much more than
	// for a brightness shift.
	a := image.NewRGBA(image.Rect(0, 0, 64, 64))
	b := image.NewRGBA(image.Rect(0, 0, 64, 64))
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			// a: vertical stripes; b: horizontal stripes.
			av := uint8(0)
			if x%8 < 4 {
				av = 255
			}
			bv := uint8(0)
			if y%8 < 4 {
				bv = 255
			}
			a.SetRGBA(x, y, color.RGBA{av, av, av, 255})
			b.SetRGBA(x, y, color.RGBA{bv, bv, bv, 255})
		}
	}
	m, _ := Compare(a, b)
	if m.SSIM > 0.3 {
		t.Errorf("orthogonal structure should have low SSIM: %v", m.SSIM)
	}
}
