// Package imgcmp compares rendered screenshots against ground truth — the
// paper's evaluation compares ChatVis images with manually created ones
// (§III-D). It provides pixel metrics (RMSE, PSNR, differing-pixel ratio),
// a grayscale SSIM, and the blank-image test used to judge the paper's
// "no error but wrong screenshot" cases.
package imgcmp

import (
	"fmt"
	"image"
	"math"
)

// Metrics summarizes the comparison of two equally-sized images.
type Metrics struct {
	// RMSE is the root-mean-square error over RGB in [0,1] units.
	RMSE float64
	// PSNR in dB (infinite for identical images).
	PSNR float64
	// DiffRatio is the fraction of pixels differing by more than a small
	// tolerance.
	DiffRatio float64
	// SSIM is the mean structural similarity over the luma channel.
	SSIM float64
}

// String renders the metrics compactly.
func (m Metrics) String() string {
	return fmt.Sprintf("rmse=%.4f psnr=%.1fdB diff=%.2f%% ssim=%.3f",
		m.RMSE, m.PSNR, m.DiffRatio*100, m.SSIM)
}

// luma converts a color to [0,1] luminance.
func luma(r, g, b uint32) float64 {
	return (0.299*float64(r) + 0.587*float64(g) + 0.114*float64(b)) / 65535
}

// Compare computes all metrics. Images must have identical dimensions.
func Compare(a, b image.Image) (Metrics, error) {
	var m Metrics
	ba, bb := a.Bounds(), b.Bounds()
	if ba.Dx() != bb.Dx() || ba.Dy() != bb.Dy() {
		return m, fmt.Errorf("imgcmp: size mismatch %dx%d vs %dx%d",
			ba.Dx(), ba.Dy(), bb.Dx(), bb.Dy())
	}
	w, h := ba.Dx(), ba.Dy()
	n := w * h
	if n == 0 {
		return m, fmt.Errorf("imgcmp: empty images")
	}
	const diffTol = 4.0 / 255

	sumSq := 0.0
	diff := 0
	lumaA := make([]float64, n)
	lumaB := make([]float64, n)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			ra, ga, bba, _ := a.At(ba.Min.X+x, ba.Min.Y+y).RGBA()
			rb, gb, bbb, _ := b.At(bb.Min.X+x, bb.Min.Y+y).RGBA()
			dr := (float64(ra) - float64(rb)) / 65535
			dg := (float64(ga) - float64(gb)) / 65535
			db := (float64(bba) - float64(bbb)) / 65535
			sumSq += dr*dr + dg*dg + db*db
			if math.Abs(dr) > diffTol || math.Abs(dg) > diffTol || math.Abs(db) > diffTol {
				diff++
			}
			lumaA[y*w+x] = luma(ra, ga, bba)
			lumaB[y*w+x] = luma(rb, gb, bbb)
		}
	}
	m.RMSE = math.Sqrt(sumSq / float64(3*n))
	if m.RMSE == 0 {
		m.PSNR = math.Inf(1)
	} else {
		m.PSNR = 20 * math.Log10(1/m.RMSE)
	}
	m.DiffRatio = float64(diff) / float64(n)
	m.SSIM = ssim(lumaA, lumaB, w, h)
	return m, nil
}

// ssim computes mean SSIM over 8x8 windows on luma values.
func ssim(a, b []float64, w, h int) float64 {
	const (
		c1  = 0.01 * 0.01
		c2  = 0.03 * 0.03
		win = 8
	)
	total, count := 0.0, 0
	for wy := 0; wy+win <= h; wy += win {
		for wx := 0; wx+win <= w; wx += win {
			var muA, muB float64
			for y := 0; y < win; y++ {
				for x := 0; x < win; x++ {
					muA += a[(wy+y)*w+wx+x]
					muB += b[(wy+y)*w+wx+x]
				}
			}
			nw := float64(win * win)
			muA /= nw
			muB /= nw
			var varA, varB, cov float64
			for y := 0; y < win; y++ {
				for x := 0; x < win; x++ {
					da := a[(wy+y)*w+wx+x] - muA
					db := b[(wy+y)*w+wx+x] - muB
					varA += da * da
					varB += db * db
					cov += da * db
				}
			}
			varA /= nw - 1
			varB /= nw - 1
			cov /= nw - 1
			s := ((2*muA*muB + c1) * (2*cov + c2)) /
				((muA*muA + muB*muB + c1) * (varA + varB + c2))
			total += s
			count++
		}
	}
	if count == 0 {
		return 1
	}
	return total / float64(count)
}

func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

// ForegroundMask classifies pixels as foreground (different from the
// image's own background color, taken from its top-left corner) and
// returns the mask plus the foreground fraction. Per-image backgrounds
// make the mask robust to palette differences (white vs gray).
func ForegroundMask(img image.Image) ([]bool, float64) {
	b := img.Bounds()
	w, h := b.Dx(), b.Dy()
	mask := make([]bool, w*h)
	if w == 0 || h == 0 {
		return mask, 0
	}
	bgR, bgG, bgB := cornerBackground(img)
	const tol = 12 * 257
	fg := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r, g, bl, _ := img.At(b.Min.X+x, b.Min.Y+y).RGBA()
			if absDiff(r, bgR) > tol || absDiff(g, bgG) > tol || absDiff(bl, bgB) > tol {
				mask[y*w+x] = true
				fg++
			}
		}
	}
	return mask, float64(fg) / float64(w*h)
}

// cornerBackground estimates the background color as the majority color
// among the four image corners (robust to an object touching one corner).
func cornerBackground(img image.Image) (r, g, b uint32) {
	bo := img.Bounds()
	corners := [4][2]int{
		{bo.Min.X, bo.Min.Y}, {bo.Max.X - 1, bo.Min.Y},
		{bo.Min.X, bo.Max.Y - 1}, {bo.Max.X - 1, bo.Max.Y - 1},
	}
	type rgb struct{ r, g, b uint32 }
	counts := map[rgb]int{}
	var best rgb
	bestN := 0
	for _, c := range corners {
		cr, cg, cb, _ := img.At(c[0], c[1]).RGBA()
		k := rgb{cr, cg, cb}
		counts[k]++
		if counts[k] > bestN {
			best, bestN = k, counts[k]
		}
	}
	return best.r, best.g, best.b
}

// MaskIoU computes intersection-over-union of two equal-sized masks.
func MaskIoU(a, b []bool) float64 {
	if len(a) != len(b) {
		return 0
	}
	inter, union := 0, 0
	for i := range a {
		if a[i] && b[i] {
			inter++
		}
		if a[i] || b[i] {
			union++
		}
	}
	if union == 0 {
		return 1 // both empty
	}
	return float64(inter) / float64(union)
}

// MatchesGroundTruth decides the paper's "SS" criterion: does the
// screenshot show the correct visualization? Three gates, mirroring how
// the authors judged images:
//
//  1. The image must show comparably much content as the reference (this
//     rejects the paper's "no error but blank screenshot" GPT-4 volume
//     case, where only the dataset outline appears).
//  2. Pixel-identical or near-identical images pass outright.
//  3. Otherwise the foreground shapes must overlap substantially —
//     tolerating background-color and zoom differences like the paper's
//     GPT-4 isosurface (gray background, different zoom, still "correct").
func MatchesGroundTruth(m Metrics, gt, img image.Image) bool {
	gtMask, gtFrac := ForegroundMask(gt)
	imgMask, imgFrac := ForegroundMask(img)
	if imgFrac < 0.2*gtFrac || imgFrac == 0 {
		return false
	}
	if m.SSIM >= 0.7 || m.RMSE <= 0.08 {
		return true
	}
	return MaskIoU(gtMask, imgMask) >= 0.25
}
