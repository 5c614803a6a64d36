package eval

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"chatvis/internal/llm"
	"chatvis/internal/plan"
	"chatvis/internal/pvsim"
)

// fuzzExecBudget bounds one fuzzed ExecPlan: at most fuzzMaxPixels a
// side over DataSmall, a run that is still going after this long hangs.
const fuzzExecBudget = 20 * time.Second

// shrinkViews sets every view size and screenshot resolution of p to a
// small fixed size, so seeds taken from full-size plans execute quickly.
func shrinkViews(p *plan.Plan) *plan.Plan {
	q := p.Clone()
	small := plan.Value{Kind: plan.KindList, List: []plan.Value{
		{Kind: plan.KindNum, Num: 96, IsInt: true}, {Kind: plan.KindNum, Num: 54, IsInt: true},
	}}
	for _, st := range q.Stages {
		for _, name := range []string{"ViewSize", plan.PropImageResolution} {
			if _, ok := st.Props[name]; ok {
				st.Props[name] = small
			}
		}
	}
	return q
}

// FuzzPlanDeltaJSON feeds arbitrary model text down an edit turn's plan
// path: llm.ParsePlanText, schema validation, normalization, the delta
// against a seed parent plan (ChangedStages, DiffSummary) and, when the
// proposal validates and its views are at most fuzzMaxPixels a side,
// ExecPlan on a fresh engine. Every input must end in an error or a clean
// run, with no panic and no run outliving fuzzExecBudget. Seeded from
// the plan-native scenario plans, as sent and with small views.
// `make fuzz-smoke` runs it time-boxed.
func FuzzPlanDeltaJSON(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("testdata", "plans", "*.json"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no seed plans: %v", err)
	}
	schema := pvsim.PlanSchema()
	var parent *plan.Plan
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		p, err := plan.Decode(b)
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		small, err := shrinkViews(p).Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
		f.Add("Here is the updated plan:\n```json\n" + string(small) + "\n```\n")
		if filepath.Base(name) == "iso.json" {
			parent = plan.Normalize(p, schema)
		}
	}
	if parent == nil {
		f.Fatal("no iso seed plan to diff against")
	}
	dataDir := f.TempDir()
	if err := EnsureData(dataDir, DataSmall); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, text string) {
		proposed, err := llm.ParsePlanText(text)
		if err != nil {
			return
		}
		diags := plan.Errors(plan.Validate(proposed, schema))
		next := plan.Normalize(proposed, schema)
		plan.ChangedStages(parent, next)
		plan.DiffSummary(parent, next)
		if len(diags) > 0 || !smallViews(next) {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), fuzzExecBudget)
		defer cancel()
		if _, err := pvsim.NewEngine(dataDir, t.TempDir()).ExecPlan(ctx, next); errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("ExecPlan ran past %v:\n%s", fuzzExecBudget, text)
		}
	})
}
