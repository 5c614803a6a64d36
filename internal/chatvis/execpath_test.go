package chatvis

import (
	"context"
	"strings"
	"testing"

	"chatvis/internal/llm"
	"chatvis/internal/obs"
	"chatvis/internal/plan"
	"chatvis/internal/pvsim"
)

// scriptModel answers every request with one fixed script.
type scriptModel struct{ script string }

func (m scriptModel) Name() string { return "script" }

func (m scriptModel) Complete(context.Context, llm.Request) (llm.Response, error) {
	return llm.Response{Text: m.script, Model: "script", Attempts: 1}, nil
}

const execPathScript = `from paraview.simple import *
reader = LegacyVTKReader(FileNames=['ml-100.vtk'])
contour1 = Contour(Input=reader)
contour1.ContourBy = ['POINTS', 'var0']
contour1.Isosurfaces = [0.5]
renderView1 = GetActiveViewOrCreate('RenderView')
renderView1.ViewSize = [160, 90]
contour1Display = Show(contour1, renderView1)
renderView1.ResetCamera()
%CRASH%
SaveScreenshot('iso.png', renderView1, ImageResolution=[160, 90])
`

// runScriptTurn runs a first turn whose model writes the given script,
// traced, and returns the turn and its spans.
func runScriptTurn(t *testing.T, script string) (*Turn, []obs.SpanData) {
	t.Helper()
	s, err := NewSession(scriptModel{script}, testRunner(t), WithUnassisted(true))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer("test", 8)
	ctx, root := obs.Start(obs.WithTracer(context.Background(), tr), "test")
	turn, err := s.Turn(ctx, "Read in the file named ml-100.vtk.")
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	td, ok := tr.Get(root.Context().TraceID)
	if !ok {
		t.Fatal("trace not retained")
	}
	return turn, td.Spans
}

func spanNamed(spans []obs.SpanData, name string) []obs.SpanData {
	var out []obs.SpanData
	for _, sp := range spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// TestFullyModelledScriptExecutesOnce: a script whose plan is fully
// modelled runs once, as a plan on the session engine. The turn renders
// one view per screenshot, executes each pipeline stage once, and leaves
// the engine primed for the next edit.
func TestFullyModelledScriptExecutesOnce(t *testing.T) {
	turn, spans := runScriptTurn(t, strings.Replace(execPathScript, "%CRASH%", "", 1))
	art := turn.Artifact
	if !art.Success {
		t.Fatalf("turn failed:\n%s", art.Iterations[0].Output)
	}
	execs := spanNamed(spans, "script.exec")
	if len(execs) != 1 || execs[0].Attrs["path"] != "plan" {
		t.Fatalf("script.exec spans = %+v, want one on the plan path", execs)
	}
	if n := len(spanNamed(spans, "render.view")); n != len(art.Screenshots) || n != 1 {
		t.Errorf("%d render.view spans for %d screenshots", n, len(art.Screenshots))
	}
	if writes := spanNamed(spans, "screenshot.write"); len(writes) != 1 {
		t.Errorf("%d screenshot.write spans, want 1", len(writes))
	} else if a := writes[0].Attrs; a["width"] != "160" || a["height"] != "90" || a["bytes"] == "" || a["bytes"] == "0" {
		t.Errorf("screenshot.write attrs = %v, want 160x90 and a byte count", a)
	}
	if n := len(spanNamed(spans, "engine.seed-exec")); n != 0 {
		t.Errorf("%d engine.seed-exec spans", n)
	}
	if !turn.Incremental || turn.ExecutionsDelta != 2 {
		t.Errorf("incremental=%v executions=%d, want true and 2 (reader, contour)", turn.Incremental, turn.ExecutionsDelta)
	}
}

// TestCompileCleanCrashesTakeInterpreterPath: statements the plan cannot
// express compile without error diagnostics, yet crash the interpreter.
// Each must be reported as not fully modelled, so the turn runs the
// interpreter and the repair loop sees its traceback.
func TestCompileCleanCrashesTakeInterpreterPath(t *testing.T) {
	for crash, kind := range map[string]string{
		"x = 1/0":                   "ZeroDivisionError",
		"foo()":                     "NameError",
		"import numpy":              "ModuleNotFoundError",
		"print(undefined_var)":      "NameError",
		"[1,2][5]":                  "IndexError",
		"GetActiveCamera().Zoom(2)": "Error",
	} {
		t.Run(crash, func(t *testing.T) {
			script := strings.Replace(execPathScript, "%CRASH%", crash, 1)
			compiled, err := plan.Compile(script, pvsim.PlanSchema())
			if err != nil {
				t.Fatal(err)
			}
			if plan.HasErrors(compiled.Diags) {
				t.Fatalf("expected a compile-clean script, got:\n%s", plan.FormatDiagnostics(compiled.Diags))
			}
			if plan.FullyModelled(compiled.Diags) {
				t.Fatal("crashing statement reported as fully modelled")
			}
			turn, spans := runScriptTurn(t, script)
			if turn.Artifact.Success || turn.Incremental {
				t.Fatalf("success=%v incremental=%v, want a failed interpreter run", turn.Artifact.Success, turn.Incremental)
			}
			out := turn.Artifact.Iterations[0].Output
			if !strings.Contains(out, "Traceback") || !strings.Contains(out, kind) {
				t.Errorf("output lacks a %s traceback:\n%s", kind, out)
			}
			if execs := spanNamed(spans, "script.exec"); len(execs) != 1 || execs[0].Attrs["path"] != "interpreter" {
				t.Errorf("script.exec spans = %+v, want one on the interpreter path", execs)
			}
		})
	}
}
