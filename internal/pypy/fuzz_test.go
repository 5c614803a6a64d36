package pypy_test

import (
	"context"
	"io"
	"testing"

	"chatvis/internal/eval"
	"chatvis/internal/llm"
	"chatvis/internal/pvsim"
	"chatvis/internal/pypy"
)

// stub stands in for every paraview.simple object: any attribute reads
// as a callable that returns another stub, and any attribute can be
// set, so scripts run on into their own logic.
type stub struct{}

func (stub) Type() string { return "stub" }

func (stub) Repr() string { return "<stub>" }

func (stub) GetAttr(string) (pypy.Value, error) { return stubFunc, nil }

func (stub) SetAttr(string, pypy.Value) error { return nil }

var stubFunc = &pypy.NativeFunc{Name: "stub", Fn: func(*pypy.Interp, []pypy.Value, map[string]pypy.Value) (pypy.Value, error) {
	return stub{}, nil
}}

// FuzzInterp lexes, parses and interprets arbitrary script text under
// MaxSteps: every input ends in an error or a clean run, with no panic
// and no hang. The paraview.simple names are stubs, so the fuzzer
// exercises the interpreter rather than the engine. Seeded with each
// scenario's ground truth and the script every simulated model writes
// for its prompt; `make fuzz-smoke` runs it time-boxed.
func FuzzInterp(f *testing.F) {
	for _, scn := range eval.Scenarios() {
		f.Add(scn.GroundTruthScript(320, 180))
		for _, name := range llm.ModelNames() {
			model, err := llm.NewModel(name)
			if err != nil {
				f.Fatal(err)
			}
			resp, err := model.Complete(context.Background(), llm.Request{
				System: "Generate a ParaView Python script for the user's request.",
				User:   scn.UserPrompt(320, 180),
				Task:   llm.TaskWrite,
			})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(resp.Text)
		}
	}
	simple := &pypy.ModuleVal{Name: "paraview.simple", Attrs: map[string]pypy.Value{}}
	schema := pvsim.PlanSchema()
	for name := range schema.Functions {
		simple.Attrs[name] = stubFunc
	}
	for name := range schema.Classes {
		simple.Attrs[name] = stubFunc
	}
	simple.Attrs["_DisableFirstRenderCameraReset"] = stubFunc
	f.Fuzz(func(t *testing.T, src string) {
		in := pypy.NewInterp(io.Discard)
		in.MaxSteps = 100_000
		in.RegisterModule(simple)
		simple.Attrs["paraview"] = in.Modules["paraview"]
		_ = in.Run(src)
	})
}
