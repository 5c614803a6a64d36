package render_test

import (
	"bytes"
	"image"
	"image/png"
	"math/rand"
	"testing"

	"chatvis/internal/eval"
	"chatvis/internal/pvpython"
	"chatvis/internal/render"
)

// opaqueImage fills a w x h image with random RGB and alpha 255, the
// shape every screenshot has.
func opaqueImage(rng *rand.Rand, w, h int) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	rng.Read(img.Pix)
	for i := 3; i < len(img.Pix); i += 4 {
		img.Pix[i] = 255
	}
	return img
}

func encode(t testing.TB, img *image.RGBA) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := render.EncodePNG(&buf, img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkRoundTrip decodes enc with the stdlib decoder and requires the
// RGB of every pixel of img back, with alpha 255.
func checkRoundTrip(t testing.TB, name string, img *image.RGBA, enc []byte) {
	t.Helper()
	dec, err := png.Decode(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("%s: decoding: %v", name, err)
	}
	b := img.Bounds()
	if got := dec.Bounds(); got.Dx() != b.Dx() || got.Dy() != b.Dy() {
		t.Fatalf("%s: decoded size %v, want %dx%d", name, got, b.Dx(), b.Dy())
	}
	got, ok := dec.(*image.RGBA)
	if !ok {
		t.Fatalf("%s: decoded %T, want *image.RGBA", name, dec)
	}
	for y := 0; y < b.Dy(); y++ {
		for x := 0; x < b.Dx(); x++ {
			want := img.RGBAAt(b.Min.X+x, b.Min.Y+y)
			want.A = 255
			if c := got.RGBAAt(x, y); c != want {
				t.Fatalf("%s: pixel (%d,%d) = %v, want %v", name, x, y, c, want)
			}
		}
	}
}

// scenarioFrames renders every scenario's ground truth at the
// benchmark's 320x180 view size.
func scenarioFrames(t *testing.T) map[string]*image.RGBA {
	t.Helper()
	dataDir := t.TempDir()
	if err := eval.EnsureData(dataDir, eval.DataSmall); err != nil {
		t.Fatal(err)
	}
	frames := map[string]*image.RGBA{}
	for _, scn := range eval.Scenarios() {
		runner := &pvpython.Runner{DataDir: dataDir, OutDir: t.TempDir()}
		res := runner.Exec(scn.GroundTruthScript(320, 180))
		if !res.OK() || len(res.Screenshots) == 0 {
			t.Fatalf("%s ground truth failed:\n%s", scn.ID, res.Output)
		}
		frames[scn.ID] = res.Engine.Rendered[res.Screenshots[len(res.Screenshots)-1]]
	}
	return frames
}

func TestEncodePNGRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sz := range [][2]int{{1, 1}, {3, 7}, {97, 33}} {
		img := opaqueImage(rng, sz[0], sz[1])
		checkRoundTrip(t, "random", img, encode(t, img))
	}

	// A sub-image starts mid-row and has a stride wider than its rows.
	parent := opaqueImage(rng, 40, 30)
	sub := parent.SubImage(image.Rect(5, 3, 26, 20)).(*image.RGBA)
	checkRoundTrip(t, "sub-image", sub, encode(t, sub))

	if testing.Short() {
		return
	}
	for id, img := range scenarioFrames(t) {
		enc := encode(t, img)
		checkRoundTrip(t, id, img, enc)
		if again := encode(t, img); !bytes.Equal(enc, again) {
			t.Errorf("%s: encoding the same frame twice gave different bytes", id)
		}
	}
}

// TestEncodePNGPooledReuse encodes alternating sizes so one pooled
// encoder's buffers shrink and grow between uses, and requires every
// encode to round-trip and to equal the first encode of its image.
func TestEncodePNGPooledReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	imgs := []*image.RGBA{
		opaqueImage(rng, 320, 180),
		opaqueImage(rng, 5, 2),
		opaqueImage(rng, 64, 200),
	}
	first := make([][]byte, len(imgs))
	for round := 0; round < 3; round++ {
		for i, img := range imgs {
			enc := encode(t, img)
			checkRoundTrip(t, "pooled", img, enc)
			if round == 0 {
				first[i] = enc
			} else if !bytes.Equal(enc, first[i]) {
				t.Fatalf("image %d: round %d bytes differ from round 0", i, round)
			}
		}
	}
}

func TestEncodePNGRejectsEmpty(t *testing.T) {
	if err := render.EncodePNG(&bytes.Buffer{}, image.NewRGBA(image.Rect(0, 0, 0, 4))); err == nil {
		t.Error("encoding a 0x4 image succeeded")
	}
}

// FuzzEncodePNG encodes fuzzed opaque images up to 64x64 (pixels tile
// the fuzzed bytes) and checks the stdlib decoder gives them back.
func FuzzEncodePNG(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(2), uint8(6), []byte{1, 2, 3})
	f.Add(uint8(63), uint8(63), []byte{255, 0, 128, 7, 9})
	f.Fuzz(func(t *testing.T, w, h uint8, pix []byte) {
		img := image.NewRGBA(image.Rect(0, 0, 1+int(w)%64, 1+int(h)%64))
		for i := range img.Pix {
			switch {
			case i%4 == 3:
				img.Pix[i] = 255
			case len(pix) > 0:
				img.Pix[i] = pix[i%len(pix)]
			}
		}
		checkRoundTrip(t, "fuzz", img, encode(t, img))
	})
}
