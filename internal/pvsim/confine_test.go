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
		paths := map[string]func(e *Engine) error{
			"interpreter": func(e *Engine) error {
				interp := pypy.NewInterp(io.Discard)
				simple := e.BuildSimpleModule()
				interp.RegisterModule(simple)
				simple.Attrs["paraview"] = interp.Modules["paraview"]
				return interp.Run(script)
			},
			"plan": func(e *Engine) error {
				_, err := e.ExecPlan(context.Background(), compilePlan(t, script))
				return err
			},
		}
		for path, run := range paths {
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
