package eval

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"image"
	"image/draw"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"chatvis/internal/chatvis"
	"chatvis/internal/data"
	"chatvis/internal/datagen"
	"chatvis/internal/filters"
	"chatvis/internal/llm"
	"chatvis/internal/pvpython"
	"chatvis/internal/render"
	"chatvis/internal/vmath"
)

// framesGolden holds one "<frame> <sha256 of its decoded RGBA pixels>"
// line per frame. The hashes pin the renderer's output bit for bit: a
// change to the raster or geometry code that moves any pixel of any
// listed frame fails TestFramesMatchParent. Never re-record the file to
// make a diff pass; a change that means to move pixels reports its
// per-frame diffs instead.
const framesGolden = "testdata/frames.sha256"

// frameSizes are the resolutions the scenario and scene frames are
// rendered at: the benchmark view size and an odd size whose rows and
// columns split unevenly over any band or chunk layout.
var frameSizes = [][2]int{{320, 180}, {297, 171}}

// TestFramesMatchParent renders the 12 scenario ground truths, three
// edited conversations and a set of renderer scenes covering every
// raster path, and compares each decoded frame's hash with the golden
// file.
func TestFramesMatchParent(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds, which changes the
		// last bits of a shaded colour and so, now and then, a pixel.
		t.Skip("frame hashes are recorded on amd64")
	}
	want := readFrameHashes(t)
	got := map[string]string{}
	dataDir := t.TempDir()
	if err := EnsureData(dataDir, DataSmall); err != nil {
		t.Fatal(err)
	}
	for _, size := range frameSizes {
		w, h := size[0], size[1]
		for _, scn := range Scenarios() {
			c := Config{DataDir: dataDir, OutDir: t.TempDir(), Width: w, Height: h, DataSize: DataSmall}
			img, err := c.groundTruth(scn)
			if err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("scenario/%s/%dx%d", scn.ID, w, h)] = frameHash(img)
		}
		for name, r := range frameScenes(t) {
			got[fmt.Sprintf("scene/%s/%dx%d", name, w, h)] = frameHash(r.Render(w, h))
		}
	}
	for _, track := range []string{"iso", "clip", "glyph"} {
		for edit, img := range editedFrames(t, dataDir, track) {
			got[fmt.Sprintf("session/%s/%s", track, edit)] = frameHash(img)
		}
	}

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var table strings.Builder
	for _, name := range names {
		fmt.Fprintf(&table, "%s %s\n", name, got[name])
		switch w, ok := want[name]; {
		case !ok:
			t.Errorf("%s: no recorded hash", name)
		case w != got[name]:
			t.Errorf("%s: frame hash %s, recorded %s", name, got[name], w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: recorded but not rendered", name)
		}
	}
	if t.Failed() {
		t.Logf("rendered frame hashes:\n%s", table.String())
	}
}

// readFrameHashes parses the golden file.
func readFrameHashes(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(framesGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	hashes := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			t.Fatalf("%s: bad line %q", framesGolden, sc.Text())
		}
		hashes[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return hashes
}

// frameHash is the SHA-256 of an image's size and RGBA pixels.
func frameHash(img image.Image) string {
	rgba, ok := img.(*image.RGBA)
	if !ok || rgba.Rect.Min != (image.Point{}) || rgba.Stride != 4*rgba.Rect.Dx() {
		rgba = image.NewRGBA(image.Rect(0, 0, img.Bounds().Dx(), img.Bounds().Dy()))
		draw.Draw(rgba, rgba.Rect, img, img.Bounds().Min, draw.Src)
	}
	sum := sha256.New()
	fmt.Fprintf(sum, "%dx%d\n", rgba.Rect.Dx(), rgba.Rect.Dy())
	sum.Write(rgba.Pix)
	return hex.EncodeToString(sum.Sum(nil))
}

// editedFrames runs a two-edit conversation on a track (its scenario's
// prompt, then a colour edit, then a camera edit) and returns the
// decoded screenshot each edit turn wrote.
func editedFrames(t *testing.T, dataDir, track string) map[string]image.Image {
	t.Helper()
	scn, ok := ScenarioByID(track)
	if !ok {
		t.Fatalf("no scenario %q", track)
	}
	model, err := llm.NewModel("gpt-4")
	if err != nil {
		t.Fatal(err)
	}
	runner := &pvpython.Runner{DataDir: dataDir, OutDir: t.TempDir()}
	sess, err := chatvis.NewSession(model, runner, chatvis.WithPlanValidation(true))
	if err != nil {
		t.Fatal(err)
	}
	turns := []struct{ name, prompt string }{
		{"first", scn.UserPrompt(320, 180)},
		{"colour", "Color the result red."},
		{"camera+X", "View the result in the +X direction."},
	}
	frames := map[string]image.Image{}
	for _, turn := range turns {
		tr, err := sess.Turn(context.Background(), turn.prompt)
		if err != nil {
			t.Fatalf("%s %s: %v", track, turn.name, err)
		}
		art := tr.Artifact
		if !art.Success || len(art.Screenshots) == 0 {
			t.Fatalf("%s %s: turn failed or wrote no screenshot", track, turn.name)
		}
		if turn.name == "first" {
			continue
		}
		img, err := render.LoadPNG(art.Screenshots[len(art.Screenshots)-1])
		if err != nil {
			t.Fatal(err)
		}
		frames[turn.name] = img
	}
	return frames
}

// frameScenes builds renderer scenes that between them reach every
// geometry and raster path: smooth (per-vertex normals) and flat
// shading, triangles cut by the near plane (small ones beside a camera
// inside a surface, and the walls of a room around the camera),
// translucent triangles, wireframe and surface-with-edges lines, points,
// polylines with vertex cells, and a ray-cast volume depth-tested
// against a surface.
func frameScenes(t *testing.T) map[string]*render.Renderer {
	t.Helper()
	vol := datagen.MarschnerLobb(24)
	contour := func(v float64, normals bool) *data.PolyData {
		surf, err := filters.Contour(vol, "var0", v)
		if err != nil {
			t.Fatal(err)
		}
		if normals {
			filters.ComputePointNormals(surf)
		} else if surf.Points.Get("Normals") != nil {
			t.Fatal("contour output carries normals; the flat scene needs a mesh without them")
		}
		return surf
	}
	smooth, flat := contour(0.5, true), contour(0.5, false)
	lo, hi := data.FieldRange(vol, "var0")
	colored := func(mesh *data.PolyData) *render.Actor {
		a := render.NewActor(mesh)
		a.ColorField, a.LUT = "var0", render.NewCoolToWarm(lo, hi)
		return a
	}
	scene := func(actors ...*render.Actor) *render.Renderer {
		r := render.NewRenderer()
		for _, a := range actors {
			r.AddActor(a)
		}
		r.ResetCamera()
		return r
	}
	scenes := map[string]*render.Renderer{}
	scenes["smooth"] = scene(colored(smooth))
	scenes["flat"] = scene(colored(flat))

	// The camera sits inside the surface, so triangles that pass beside
	// it have corners on both sides of the near plane.
	inside := scene(colored(smooth))
	center := vol.Bounds().Center()
	inside.Camera.Position = center
	inside.Camera.FocalPoint = center.Add(vmath.V(1, 0.3, 0.2))
	inside.Camera.ViewUp = vmath.V(0, 0, 1)
	scenes["inside"] = inside

	// A room around the camera: each of its twelve wall triangles has
	// corners on both sides of the near plane, so the whole frame comes
	// from the clipping path. The room has no normals, so its clipped
	// triangles are also flat-shaded.
	room := data.NewPolyData()
	wallScalar := data.NewField("s", 1, 8)
	for i := 0; i < 8; i++ {
		p := vmath.V(float64(i&1)*4-2, float64(i>>1&1)*4-2, float64(i>>2&1)*4-2)
		room.AddPoint(p)
		wallScalar.SetScalar(i, p.X+2*p.Y+3*p.Z)
	}
	room.Points.Add(wallScalar)
	for _, f := range [][4]int{{0, 1, 3, 2}, {4, 6, 7, 5}, {0, 4, 5, 1}, {2, 3, 7, 6}, {0, 2, 6, 4}, {1, 5, 7, 3}} {
		room.AddPoly(f[0], f[1], f[2], f[3])
	}
	walls := render.NewActor(room)
	walls.ColorField, walls.LUT = "s", render.NewCoolToWarm(-12, 12)
	inRoom := scene(walls)
	inRoom.Camera.Position = vmath.V(0.3, -0.2, 0.1)
	inRoom.Camera.FocalPoint = vmath.V(1.3, 0.3, 0.5)
	inRoom.Camera.ViewUp = vmath.V(0, 0, 1)
	scenes["inside-room"] = inRoom

	half := filters.ClipPolyData(smooth, vmath.NewPlane(vmath.V(0, 0, 0), vmath.V(1, 0, 0)))
	glass := colored(contour(0.3, true))
	glass.Opacity = 0.5
	scenes["opacity"] = scene(colored(half), glass)

	wire := colored(flat)
	wire.Rep = render.RepWireframe
	scenes["wireframe"] = scene(wire)
	edges := colored(smooth)
	edges.Rep = render.RepSurfaceWithEdges
	scenes["edges"] = scene(edges)
	points := colored(smooth)
	points.Rep, points.PointSize = render.RepPoints, 3
	scenes["points"] = scene(points)

	// A helix polyline coloured along its length, with a vertex cell at
	// every tenth point; drawn 3 pixels wide.
	helix := data.NewPolyData()
	scal := data.NewField("s", 1, 200)
	ids := make([]int, 200)
	for i := range ids {
		a := float64(i) * 0.1
		ids[i] = helix.AddPoint(vmath.V(math.Cos(a), math.Sin(a), float64(i)/100-1))
		scal.SetScalar(i, float64(i))
		if i%10 == 0 {
			helix.AddVert(ids[i])
		}
	}
	helix.Points.Add(scal)
	helix.AddLine(ids...)
	line := render.NewActor(helix)
	line.ColorField, line.LUT = "s", render.NewCoolToWarm(0, 199)
	line.LineWidth, line.PointSize = 3, 4
	scenes["polylines"] = scene(line)

	volume := scene(colored(contour(0.7, true)))
	volume.AddVolume(render.NewVolumeActor(vol, "var0"))
	volume.ResetCamera()
	scenes["volume"] = volume
	return scenes
}
