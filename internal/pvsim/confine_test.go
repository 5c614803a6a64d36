package pvsim

import (
	"context"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chatvis/internal/datagen"
	"chatvis/internal/pypy"
	"chatvis/internal/vtkio"
)

// executionPaths runs a script on an engine through the interpreter or
// as its compiled plan, keyed by path name.
func executionPaths(t *testing.T, script string) map[string]func(e *Engine) error {
	return map[string]func(e *Engine) error{
		"interpreter": func(e *Engine) error {
			_, err := e.Run(context.Background(), pypy.NewInterp(io.Discard), script)
			return err
		},
		"plan": func(e *Engine) error {
			_, err := e.ExecPlan(context.Background(), compilePlan(t, script))
			return err
		},
	}
}

// TestEscapingFileNamesAreRefused: screenshot and reader file names
// taken from a script stay inside their directories on both execution
// paths. An escaping name fails with a RuntimeError naming the call, and
// nothing is written or read outside the root.
func TestEscapingFileNamesAreRefused(t *testing.T) {
	const outside = "/tmp/x.png"
	_, statErr := os.Stat(outside)
	existedBefore := statErr == nil

	cases := []struct {
		name, from, to, want string
	}{
		{"parent screenshot", "'plan-iso.png'", "'../x.png'",
			`SaveScreenshot: file name "../x.png" resolves outside the output directory`},
		{"nested parent screenshot", "'plan-iso.png'", "'a/../../x.png'",
			`SaveScreenshot: file name "a/../../x.png" resolves outside the output directory`},
		{"absolute screenshot", "'plan-iso.png'", "'" + outside + "'",
			`SaveScreenshot: file name "/tmp/x.png" resolves outside the output directory`},
		{"parent reader", "FileNames=['ml-100.vtk']", "FileNames=['../../etc/passwd']",
			`LegacyVTKReader: file name "../../etc/passwd" resolves outside the data directory`},
		{"absolute reader", "LegacyVTKReader(registrationName='ml-100.vtk', FileNames=['ml-100.vtk'])",
			"ExodusIIReader(FileName='/etc/hostname')",
			`ExodusIIReader: file name "/etc/hostname" resolves outside the data directory`},
	}
	for _, tc := range cases {
		script := strings.Replace(planIsoScript, tc.from, tc.to, 1)
		if script == planIsoScript {
			t.Fatalf("%s: substitution did not apply", tc.name)
		}
		for path, run := range executionPaths(t, script) {
			// The engine reads under root/data and writes under
			// root/a/out, so a name leaving either lands inside root.
			root := t.TempDir()
			dataDir := filepath.Join(root, "data")
			if err := os.Mkdir(dataDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := vtkio.SaveLegacyVTK(filepath.Join(dataDir, "ml-100.vtk"), datagen.MarschnerLobb(16), "ml"); err != nil {
				t.Fatal(err)
			}
			e := NewEngine(dataDir, filepath.Join(root, "a", "out"))
			err := run(e)
			var pe *pypy.PyError
			if !errors.As(err, &pe) || pe.Kind != "RuntimeError" || pe.Msg != tc.want {
				t.Errorf("%s via %s: err = %v, want RuntimeError %q", tc.name, path, err, tc.want)
			}
			if len(e.Screenshots) != 0 {
				t.Errorf("%s via %s: recorded screenshots %v", tc.name, path, e.Screenshots)
			}
			filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
				if err == nil && !d.IsDir() && p != filepath.Join(dataDir, "ml-100.vtk") {
					t.Errorf("%s via %s: wrote %s", tc.name, path, p)
				}
				return err
			})
			if _, err := os.Stat(outside); err == nil && !existedBefore {
				t.Errorf("%s via %s: wrote %s", tc.name, path, outside)
			}
		}
	}
}

// TestLocalNamesStayUsable: names that stay inside their root, nested
// or not yet clean, still resolve there.
func TestLocalNamesStayUsable(t *testing.T) {
	for name, want := range map[string]string{
		"x.png":           "x.png",
		"shots/x.png":     "shots/x.png",
		"./a/../x.png":    "x.png",
		"a/b/../../x.png": "x.png",
	} {
		got, err := localName("SaveScreenshot", "output", name)
		if err != nil || got != want {
			t.Errorf("localName(%q) = %q, %v; want %q", name, got, err, want)
		}
	}
	e := testEngine(t)
	shots, err := e.ExecPlan(context.Background(), compilePlan(t,
		strings.Replace(planIsoScript, "'plan-iso.png'", "'shots/./iso.png'", 1)))
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(string(e.Sink.(DirSink)), "shots", "iso.png"); len(shots) != 1 || shots[0] != want {
		t.Fatalf("screenshots = %v, want [%s]", shots, want)
	}
	if _, err := os.Stat(shots[0]); err != nil {
		t.Fatal(err)
	}
}

// TestOversizedRenderIsRefused: a render size taken from a script that
// would exhaust memory fails with a RuntimeError naming the size, on
// both execution paths, before any framebuffer is allocated. 2^32 a
// side would overflow the pixel count. Sizes whose conversion to int
// would wrap (1e300) and negative sides fail the same way instead of
// rendering at the default size.
func TestOversizedRenderIsRefused(t *testing.T) {
	const res = "ImageResolution=[120, 80]"
	limit := func(size string) string {
		return "render size " + size + " exceeds the limit of 8192 pixels a side and 8294400 pixels in total"
	}
	negative := func(size string) string { return "render size " + size + " is negative or not a number" }
	noResolution := [2]string{res + ",\n    ", ""}
	cases := []struct {
		name, want string
		edits      [][2]string // old, new script text
	}{
		{"side", limit("100000x100000"), [][2]string{{res, "ImageResolution=[100000, 100000]"}}},
		{"area", limit("8192x8192"), [][2]string{{res, "ImageResolution=[8192, 8192]"}}},
		{"overflow", limit("4294967296x4294967296"), [][2]string{{res, "ImageResolution=[4294967296, 4294967296]"}}},
		{"wrapping", limit("1e+300x1e+300"), [][2]string{{res, "ImageResolution=[1e300, 1e300]"}}},
		{"negative", negative("-5x40"), [][2]string{{res, "ImageResolution=[-5, 40]"}}},
		{"view size", limit("9000x100"), [][2]string{
			noResolution,
			{"ViewSize = [120, 80]", "ViewSize = [9000, 100]"},
		}},
		{"wrapping view size", limit("1e+300x100"), [][2]string{
			noResolution,
			{"ViewSize = [120, 80]", "ViewSize = [1e300, 100]"},
		}},
		{"negative view size", negative("120x-80"), [][2]string{
			noResolution,
			{"ViewSize = [120, 80]", "ViewSize = [120, -80]"},
		}},
	}
	for _, tc := range cases {
		script := planIsoScript
		for _, ed := range tc.edits {
			if !strings.Contains(script, ed[0]) {
				t.Fatalf("%s: substitution %q did not apply", tc.name, ed[0])
			}
			script = strings.Replace(script, ed[0], ed[1], 1)
		}
		for path, run := range executionPaths(t, script) {
			e := testEngine(t)
			err := run(e)
			var pe *pypy.PyError
			if !errors.As(err, &pe) || pe.Kind != "RuntimeError" || pe.Msg != tc.want {
				t.Errorf("%s via %s: err = %v, want RuntimeError %q", tc.name, path, err, tc.want)
			}
			if len(e.Screenshots) != 0 {
				t.Errorf("%s via %s: recorded screenshots %v", tc.name, path, e.Screenshots)
			}
		}
	}
}
