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

// A script runs in one way: the interpreter records what it does, and
// ExecPlan renders the screenshots from the plan it lowered to
// (pvsim.Engine.Run). The tests below check that the lowered plan is all
// a run depends on: executed cold, it writes the same screenshots.

// corpusW and corpusH size the corpus renders (the eval default width
// class, where glyph scenes once diverged between two execution paths).
const corpusW, corpusH = 320, 180

var corpus struct {
	once    sync.Once
	scripts []string
	err     error
}

// corpusScripts returns the scenario corpus (buildCorpus) at the corpus
// size, built once per test binary.
func corpusScripts(t testing.TB) []string {
	t.Helper()
	corpus.once.Do(func() {
		dir, err := os.MkdirTemp("", "chatvis-corpus-")
		if err != nil {
			corpus.err = err
			return
		}
		defer os.RemoveAll(dir)
		corpus.scripts, corpus.err = buildCorpus(dir, corpusW, corpusH)
	})
	if corpus.err != nil {
		t.Fatal(corpus.err)
	}
	return corpus.scripts
}

// buildCorpus returns every distinct script of the scenario corpus at
// w x h: the ground truths, plus every round's script of every scenario
// under every simulated model, assisted, assisted with plan validation,
// and unassisted. The sessions run on DataSmall, generated in dir.
func buildCorpus(dir string, w, h int) ([]string, error) {
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
		add(scn.GroundTruthScript(w, h))
		prompt := scn.UserPrompt(w, h)
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

// runScript runs a script through pvpython in outDir and returns the
// result with its screenshots' bytes by file name.
func runScript(t testing.TB, dataDir, outDir, script string, maxSteps int) (*pvpython.Result, map[string][]byte) {
	res := (&pvpython.Runner{DataDir: dataDir, OutDir: outDir, MaxSteps: maxSteps}).Exec(script)
	if !res.OK() {
		return res, nil
	}
	return res, readShots(t, outDir, res.Screenshots)
}

// checkColdReplay runs a clean run's lowered plan on a fresh engine in
// outDir and fails unless it writes the run's screenshots byte for byte.
func checkColdReplay(t testing.TB, dataDir, outDir, script string, p *plan.Plan, want map[string][]byte) {
	t.Helper()
	shots, err := pvsim.NewEngine(dataDir, outDir).ExecPlan(context.Background(), p)
	if err != nil {
		t.Fatalf("the lowered plan fails on a fresh engine: %v\n%s", err, script)
	}
	got := readShots(t, outDir, shots)
	if len(got) != len(want) {
		t.Fatalf("%d screenshots cold vs %d in the run:\n%s", len(got), len(want), script)
	}
	for name, b := range want {
		if !bytes.Equal(got[name], b) {
			t.Fatalf("%s differs between the run and its cold plan:\n%s", name, script)
		}
	}
}

// TestInterpreterAndPlanPathsAgree: for every corpus script that runs
// cleanly, the plan it lowered to, run by ExecPlan on a fresh engine,
// writes byte-identical screenshots.
func TestInterpreterAndPlanPathsAgree(t *testing.T) {
	scripts := corpusScripts(t)
	dataDir := t.TempDir()
	if err := EnsureData(dataDir, DataSmall); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	clean := 0
	for i, script := range scripts {
		res, shots := runScript(t, dataDir, filepath.Join(out, fmt.Sprint(i), "run"), script, 0)
		if !res.OK() || len(errext.Extract(res.Output)) > 0 {
			continue
		}
		clean++
		checkColdReplay(t, dataDir, filepath.Join(out, fmt.Sprint(i), "cold"), script, res.Plan, shots)
	}
	if clean == 0 {
		t.Error("no corpus script runs cleanly")
	}
	t.Logf("%d corpus scripts, %d run cleanly", len(scripts), clean)
}

// fuzzMaxPixels caps the view and image sizes a fuzzed script may ask
// for, so every input renders quickly.
const fuzzMaxPixels = 400

// wrappedScripts rewrites each scenario's ground truth the way models
// write scripts: its statements in a helper function, in a loop, and
// with the render size in a variable. The static compile models none of
// these; the interpreter runs them all.
func wrappedScripts() []string {
	var out []string
	for _, scn := range Scenarios() {
		gt := scn.GroundTruthScript(corpusW, corpusH)
		imports, body, _ := strings.Cut(gt, "\n")
		indented := "    " + strings.ReplaceAll(strings.TrimRight(body, "\n"), "\n", "\n    ")
		size := fmt.Sprintf("[%d, %d]", corpusW, corpusH)
		out = append(out,
			imports+"\ndef build():\n"+indented+"\n\nbuild()\n",
			imports+"\nfor _ in range(1):\n"+indented+"\n",
			imports+"\nsize = "+size+"\n"+strings.ReplaceAll(body, size, "size"))
	}
	return out
}

// FuzzPlanPathImpliesInterpreter checks the one-path invariant over
// mutated corpus scripts, seeded also with helper-function, loop and
// variable rewrites of the ground truths: whenever a script runs
// cleanly, the plan it lowered to, run cold, writes the same
// screenshots. `make fuzz-smoke` runs it time-boxed.
func FuzzPlanPathImpliesInterpreter(f *testing.F) {
	for _, s := range corpusScripts(f) {
		f.Add(s)
	}
	for _, s := range wrappedScripts() {
		f.Add(s)
	}
	dataDir := f.TempDir()
	if err := EnsureData(dataDir, DataSmall); err != nil {
		f.Fatal(err)
	}
	schema := pvsim.PlanSchema()
	f.Fuzz(func(t *testing.T, script string) {
		// Scripts only ever name files inside the data and output
		// directories, and render small views.
		if strings.ContainsAny(script, "/\\") {
			return
		}
		if compiled, err := plan.Compile(script, schema); err != nil || !smallViews(compiled.Plan) {
			return
		}
		out := t.TempDir()
		res, shots := runScript(t, dataDir, filepath.Join(out, "run"), script, 200000)
		if !res.OK() || !smallViews(res.Plan) {
			return
		}
		checkColdReplay(t, dataDir, filepath.Join(out, "cold"), script, res.Plan, shots)
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
