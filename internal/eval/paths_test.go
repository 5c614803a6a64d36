package eval

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"chatvis/internal/chatvis"
	"chatvis/internal/errext"
	"chatvis/internal/llm"
	"chatvis/internal/plan"
	"chatvis/internal/pvpython"
	"chatvis/internal/pvsim"
)

// Sessions execute a fully modelled script as its plan (ExecPlan) and
// everything else through the interpreter. The tests below check that
// the two paths agree on the scripts the system actually produces.

// corpusW and corpusH size the corpus renders (the eval default width
// class where glyph scenes once diverged between the paths).
const corpusW, corpusH = 320, 180

var corpus struct {
	once    sync.Once
	scripts []string
	err     error
}

// corpusScripts returns every distinct script of the scenario corpus:
// the ground truths, plus every round's script of every scenario under
// every simulated model, assisted, assisted with plan validation, and
// unassisted.
func corpusScripts(t testing.TB) []string {
	t.Helper()
	corpus.once.Do(func() {
		dir, err := os.MkdirTemp("", "chatvis-corpus-")
		if err != nil {
			corpus.err = err
			return
		}
		defer os.RemoveAll(dir)
		corpus.scripts, corpus.err = buildCorpus(dir)
	})
	if corpus.err != nil {
		t.Fatal(corpus.err)
	}
	return corpus.scripts
}

func buildCorpus(dir string) ([]string, error) {
	if err := EnsureData(dir, DataSmall); err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var scripts []string
	add := func(s string) {
		if !seen[s] {
			seen[s] = true
			scripts = append(scripts, s)
		}
	}
	ctx := context.Background()
	for _, scn := range Scenarios() {
		add(scn.GroundTruthScript(corpusW, corpusH))
		prompt := scn.UserPrompt(corpusW, corpusH)
		for _, name := range llm.ModelNames() {
			for _, mode := range []string{"assisted", "plan-validated", "unassisted"} {
				model, err := llm.NewModel(name)
				if err != nil {
					return nil, err
				}
				runner := &pvpython.Runner{DataDir: dir, OutDir: filepath.Join(dir, "out")}
				var art *chatvis.Artifact
				if mode == "unassisted" {
					art, err = chatvis.Unassisted(ctx, model, runner, prompt)
				} else {
					var a *chatvis.Assistant
					a, err = chatvis.NewAssistant(model, runner, chatvis.WithPlanValidation(mode == "plan-validated"))
					if err == nil {
						art, err = a.Run(ctx, prompt)
					}
				}
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%s: %w", scn.ID, name, mode, err)
				}
				for _, it := range art.Iterations {
					add(it.Script)
				}
			}
		}
	}
	return scripts, nil
}

// pathOutcome is what one execution path produced for a script.
type pathOutcome struct {
	ok      bool
	reports []errext.ErrorReport
	// shots maps screenshot names (relative to the output directory) to
	// their PNG bytes.
	shots map[string][]byte
}

func readShots(t testing.TB, outDir string, paths []string) map[string][]byte {
	t.Helper()
	shots := map[string][]byte{}
	for _, p := range paths {
		rel, err := filepath.Rel(outDir, p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		shots[rel] = b
	}
	return shots
}

// runInterpreter runs a script through pvpython in outDir.
func runInterpreter(t testing.TB, dataDir, outDir, script string, maxSteps int) pathOutcome {
	res := (&pvpython.Runner{DataDir: dataDir, OutDir: outDir, MaxSteps: maxSteps}).Exec(script)
	reports := errext.Extract(res.Output)
	return pathOutcome{
		ok:      res.OK() && len(reports) == 0,
		reports: reports,
		shots:   readShots(t, outDir, res.Screenshots),
	}
}

// runPlan executes a normalized plan on a fresh engine in outDir.
func runPlan(t testing.TB, dataDir, outDir string, p *plan.Plan) pathOutcome {
	shots, err := pvsim.NewEngine(dataDir, outDir).ExecPlan(context.Background(), p)
	if err != nil {
		return pathOutcome{}
	}
	return pathOutcome{ok: true, shots: readShots(t, outDir, shots)}
}

// TestInterpreterAndPlanPathsAgree is the differential check that makes
// single execution safe: every corpus script the interpreter runs
// cleanly is fully modelled, and for every fully modelled script the
// plan path and the interpreter agree on success, on the extracted
// error reports, and on every screenshot's name and bytes.
func TestInterpreterAndPlanPathsAgree(t *testing.T) {
	scripts := corpusScripts(t)
	dataDir := t.TempDir()
	if err := EnsureData(dataDir, DataSmall); err != nil {
		t.Fatal(err)
	}
	schema := pvsim.PlanSchema()
	out := t.TempDir()
	modelled := 0
	for i, script := range scripts {
		interp := runInterpreter(t, dataDir, filepath.Join(out, fmt.Sprint(i), "interp"), script, 0)
		compiled, err := plan.Compile(script, schema)
		full := err == nil && plan.FullyModelled(compiled.Diags)
		if interp.ok && !full {
			diags := ""
			if err == nil {
				diags = plan.FormatDiagnostics(compiled.Diags)
			}
			t.Errorf("script %d runs cleanly but is not fully modelled:\n%s\n%s", i, diags, script)
			continue
		}
		if !full {
			continue
		}
		modelled++
		viaPlan := runPlan(t, dataDir, filepath.Join(out, fmt.Sprint(i), "plan"), plan.Normalize(compiled.Plan, schema))
		if viaPlan.ok != interp.ok {
			t.Errorf("script %d: plan path ok=%v, interpreter ok=%v (reports %v):\n%s", i, viaPlan.ok, interp.ok, interp.reports, script)
			continue
		}
		if !interp.ok {
			// The session falls back to the interpreter, so both paths
			// report the interpreter's traceback.
			continue
		}
		if len(interp.reports) != len(viaPlan.reports) {
			t.Errorf("script %d: error reports differ: %v vs %v", i, interp.reports, viaPlan.reports)
		}
		if len(interp.shots) != len(viaPlan.shots) {
			t.Errorf("script %d: %d screenshots vs %d on the plan path", i, len(interp.shots), len(viaPlan.shots))
		}
		for name, want := range interp.shots {
			got, ok := viaPlan.shots[name]
			switch {
			case !ok:
				t.Errorf("script %d: plan path did not write %s", i, name)
			case !bytes.Equal(got, want):
				t.Errorf("script %d: %s differs between the paths:\n%s", i, name, script)
			}
		}
	}
	if modelled == 0 {
		t.Error("no corpus script is fully modelled")
	}
	t.Logf("%d corpus scripts, %d fully modelled", len(scripts), modelled)
}

// fuzzMaxPixels caps the view and image sizes a fuzzed script may ask
// for, so every input renders quickly.
const fuzzMaxPixels = 400

// FuzzPlanPathImpliesInterpreter checks the property single execution
// rests on, over mutated corpus scripts: whenever the plan path runs a
// script successfully, the interpreter does too. `make fuzz-smoke` runs
// it time-boxed.
func FuzzPlanPathImpliesInterpreter(f *testing.F) {
	for _, s := range corpusScripts(f) {
		f.Add(s)
	}
	dataDir := f.TempDir()
	if err := EnsureData(dataDir, DataSmall); err != nil {
		f.Fatal(err)
	}
	schema := pvsim.PlanSchema()
	f.Fuzz(func(t *testing.T, script string) {
		// Scripts only ever name files inside the data and output
		// directories.
		if strings.ContainsAny(script, "/\\") {
			return
		}
		compiled, err := plan.Compile(script, schema)
		if err != nil || !plan.FullyModelled(compiled.Diags) || !smallViews(compiled.Plan) {
			return
		}
		out := t.TempDir()
		viaPlan := runPlan(t, dataDir, filepath.Join(out, "plan"), plan.Normalize(compiled.Plan, schema))
		if !viaPlan.ok {
			return
		}
		if interp := runInterpreter(t, dataDir, filepath.Join(out, "interp"), script, 200000); !interp.ok {
			t.Fatalf("plan path succeeded, interpreter failed (%v):\n%s", interp.reports, script)
		}
	})
}

// smallViews reports whether every screenshot of a plan sets its
// resolution, and every resolution and view size is a list of 1 to
// fuzzMaxPixels per side.
func smallViews(p *plan.Plan) bool {
	for _, st := range p.Stages {
		if _, ok := st.Props[plan.PropImageResolution]; !ok && st.Kind == plan.StageScreenshot {
			return false
		}
		for _, name := range []string{"ViewSize", plan.PropImageResolution} {
			v, ok := st.Props[name]
			if !ok {
				continue
			}
			if v.Kind != plan.KindList {
				return false
			}
			for _, it := range v.List {
				if it.Kind != plan.KindNum || it.Num < 1 || it.Num > fuzzMaxPixels {
					return false
				}
			}
		}
	}
	return true
}
