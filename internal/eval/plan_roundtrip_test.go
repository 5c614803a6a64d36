package eval

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chatvis/internal/llm"
	"chatvis/internal/plan"
	"chatvis/internal/pvpython"
	"chatvis/internal/pvsim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden plan fixtures")

// roundTripRes is the fixed resolution the round-trip suite runs at.
const rtW, rtH = 480, 270

// cleanProfile is a defect-free writer profile.
var cleanProfile = llm.Profile{Name: "clean", RepairSkill: 2}

// TestIntendedPlanMatchesWriterAllScenarios pins the acceptance
// invariant: for every scenario, compile(WriteScript(spec)) under a
// clean, fully grounded profile equals normalize(WritePlan(spec)) — the
// writer's text and its intended IR never drift apart.
func TestIntendedPlanMatchesWriterAllScenarios(t *testing.T) {
	schema := pvsim.PlanSchema()
	for _, scn := range Scenarios() {
		t.Run(scn.ID, func(t *testing.T) {
			spec := llm.ParseIntent(scn.UserPrompt(rtW, rtH))
			script := llm.WriteScript(spec, cleanProfile, llm.FullGrounding())
			compiled, err := plan.Compile(script, schema)
			if err != nil {
				t.Fatalf("writer script does not compile: %v\n%s", err, script)
			}
			if len(plan.Errors(compiled.Diags)) > 0 {
				t.Fatalf("clean writer script has diagnostics:\n%s", plan.FormatDiagnostics(compiled.Diags))
			}
			got := plan.Normalize(compiled.Plan, schema)
			want := plan.Normalize(llm.WritePlan(spec), schema)
			if !got.Equal(want) {
				gb, _ := got.Encode()
				wb, _ := want.Encode()
				t.Errorf("intended plan diverges from compiled script:\n--- compiled ---\n%s\n--- intended ---\n%s\nscript:\n%s", gb, wb, script)
			}
		})
	}
}

// TestScriptPlanScriptRoundTripAllProfiles: across every scenario ×
// writer profile (grounded and ungrounded), the compiled plan of the
// regenerated script equals the original normalized plan. Defective
// plans round-trip too — hallucinated properties survive both
// directions. Profiles whose syntax defect makes the script unparsable
// must fail compilation, not round-trip wrongly.
func TestScriptPlanScriptRoundTripAllProfiles(t *testing.T) {
	schema := pvsim.PlanSchema()
	groundings := map[string]llm.Grounding{
		"grounded":   llm.FullGrounding(),
		"ungrounded": {},
	}
	for _, scn := range Scenarios() {
		spec := llm.ParseIntent(scn.UserPrompt(rtW, rtH))
		for _, profile := range llm.SimProfiles() {
			for gname, g := range groundings {
				name := scn.ID + "/" + profile.Name + "/" + gname
				t.Run(name, func(t *testing.T) {
					script := llm.WriteScript(spec, profile, g)
					compiled, err := plan.Compile(script, schema)
					if profile.SyntaxDefect != "" && profile.SyntaxDefect != "string" {
						// paren/fence/indent defects break the parse; the
						// "string" defect survives lexing in some scripts.
						if err == nil && profile.SyntaxDefect != "paren" {
							t.Fatalf("expected %s defect to break compilation", profile.SyntaxDefect)
						}
						return
					}
					if err != nil {
						// A defect landed in this particular script shape.
						return
					}
					p1 := plan.Normalize(compiled.Plan, schema)
					script2 := p1.Script()
					compiled2, err := plan.Compile(script2, schema)
					if err != nil {
						t.Fatalf("rendered script does not parse: %v\n%s", err, script2)
					}
					p2 := plan.Normalize(compiled2.Plan, schema)
					if !p1.Equal(p2) {
						b1, _ := p1.Encode()
						b2, _ := p2.Encode()
						t.Errorf("round trip diverges:\n--- original ---\n%s\n--- regenerated ---\n%s\nscript:\n%s\nrendered:\n%s",
							b1, b2, script, script2)
					}
				})
			}
		}
	}
}

// TestGroundTruthGoldenPlans checks every scenario's reference
// pipeline: its ground-truth script compiles with zero diagnostics of
// any severity, the normalized plan round-trips through Script(), and
// the normalized reference plan equals its committed JSON fixture
// (testdata/plans). Run with -update to regenerate the fixtures after
// intentional IR changes.
func TestGroundTruthGoldenPlans(t *testing.T) {
	schema := pvsim.PlanSchema()
	for _, scn := range Scenarios() {
		t.Run(scn.ID, func(t *testing.T) {
			compiled, err := plan.Compile(scn.GroundTruthScript(rtW, rtH), schema)
			if err != nil {
				t.Fatalf("ground truth does not compile: %v", err)
			}
			if len(compiled.Diags) > 0 {
				t.Errorf("ground truth has diagnostics:\n%s", plan.FormatDiagnostics(compiled.Diags))
			}
			p1 := plan.Normalize(compiled.Plan, schema)
			rendered, err := plan.Compile(p1.Script(), schema)
			if err != nil {
				t.Fatalf("rendered ground truth does not compile: %v\n%s", err, p1.Script())
			}
			if !p1.Equal(plan.Normalize(rendered.Plan, schema)) {
				t.Errorf("ground truth plan does not round-trip through Script():\n%s", p1.Script())
			}

			ref := scn.ReferencePlan(rtW, rtH)
			if ref == nil {
				t.Fatal("scenario has no reference plan")
			}
			got, err := ref.Encode()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "plans", scn.ID+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (run go test ./internal/eval -run TestGroundTruthGoldenPlans -update): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("normalized reference plan drifted from golden fixture %s:\n%s", path, got)
			}
			// The fixture decodes and its hash is stable.
			decoded, err := plan.Decode(want)
			if err != nil {
				t.Fatal(err)
			}
			if decoded.Hash() != ref.Hash() {
				t.Error("fixture hash mismatch")
			}
		})
	}
}

// TestPlanNativeScenariosValidate: the IR-expressed scenarios validate
// cleanly against the engine schema and round-trip through rendering.
func TestPlanNativeScenariosValidate(t *testing.T) {
	schema := pvsim.PlanSchema()
	for _, id := range []string{"glyphslice", "threshcontour"} {
		scn, ok := ScenarioByID(id)
		if !ok {
			t.Fatalf("scenario %q missing", id)
		}
		ir := scn.PlanIR(rtW, rtH)
		if ir == nil {
			t.Fatalf("%s is not plan-native", id)
		}
		if diags := plan.Errors(plan.Validate(ir, schema)); len(diags) > 0 {
			t.Fatalf("%s IR invalid:\n%s", id, plan.FormatDiagnostics(diags))
		}
		compiled, err := plan.Compile(ir.Script(), schema)
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Normalize(ir, schema).Equal(plan.Normalize(compiled.Plan, schema)) {
			t.Errorf("%s IR does not round-trip through its rendered script", id)
		}
	}
}

// FuzzScriptPlanRoundTrip checks the lower ∘ Script() ∘ normalize
// fixpoint over mutated corpus scripts: compiling, normalizing and
// rendering any input never panics, and whenever a script runs cleanly,
// the script rendered from the plan it lowered to runs cleanly and
// lowers to the same plan. `make fuzz-smoke` runs it time-boxed.
func FuzzScriptPlanRoundTrip(f *testing.F) {
	for _, s := range corpusScripts(f) {
		f.Add(s)
	}
	dataDir := f.TempDir()
	if err := EnsureData(dataDir, DataSmall); err != nil {
		f.Fatal(err)
	}
	schema := pvsim.PlanSchema()
	f.Fuzz(func(t *testing.T, script string) {
		compiled, err := plan.Compile(script, schema)
		if err != nil {
			return
		}
		plan.Normalize(compiled.Plan, schema).Script()
		if strings.ContainsAny(script, "/\\") || !smallViews(compiled.Plan) {
			return
		}
		run := &pvpython.Runner{DataDir: dataDir, OutDir: t.TempDir(), MaxSteps: 200000}
		res := run.Exec(script)
		if !res.OK() || !smallViews(res.Plan) {
			return
		}
		rendered := res.Plan.Script()
		again := run.Exec(rendered)
		if !again.OK() {
			t.Fatalf("the lowered plan's script fails:\n%s\n--- input ---\n%s\n--- rendered ---\n%s", again.Output, script, rendered)
		}
		if !again.Plan.Equal(res.Plan) {
			pb, _ := res.Plan.Encode()
			qb, _ := again.Plan.Encode()
			t.Fatalf("plan changes across a script round trip:\n--- input ---\n%s\n--- plan ---\n%s\n--- round-tripped ---\n%s", script, pb, qb)
		}
	})
}
