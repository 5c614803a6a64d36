package chatvis

import (
	"bytes"
	"context"
	"os"
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

// TestFullyModelledScriptExecutesOnce: a script runs once, on the
// session engine. The turn renders one view per screenshot, executes
// each pipeline stage once, and leaves the engine primed for the next
// edit.
func TestFullyModelledScriptExecutesOnce(t *testing.T) {
	turn, spans := runScriptTurn(t, strings.Replace(execPathScript, "%CRASH%", "", 1))
	art := turn.Artifact
	if !art.Success {
		t.Fatalf("turn failed:\n%s", art.Iterations[0].Output)
	}
	if execs := spanNamed(spans, "script.exec"); len(execs) != 1 || execs[0].Attrs["path"] != "" {
		t.Fatalf("script.exec spans = %+v, want one, with no path attribute", execs)
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
// express, which compile without error diagnostics yet crash, fail the
// round with the interpreter's traceback, so the repair loop sees it.
// A failed round renders nothing and keeps the script's static compile
// as its plan.
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
			if len(plan.Errors(compiled.Diags)) > 0 {
				t.Fatalf("expected a compile-clean script, got:\n%s", plan.FormatDiagnostics(compiled.Diags))
			}
			turn, spans := runScriptTurn(t, script)
			art := turn.Artifact
			if art.Success || turn.Incremental || len(art.Screenshots) != 0 {
				t.Fatalf("success=%v incremental=%v screenshots=%v, want a failed run", art.Success, turn.Incremental, art.Screenshots)
			}
			out := art.Iterations[0].Output
			if !strings.Contains(out, "Traceback") || !strings.Contains(out, kind) {
				t.Errorf("output lacks a %s traceback:\n%s", kind, out)
			}
			if !art.Plan.Equal(plan.Normalize(compiled.Plan, pvsim.PlanSchema())) {
				t.Error("a failed round's plan is not its static compile")
			}
			if execs := spanNamed(spans, "script.exec"); len(execs) != 1 {
				t.Errorf("script.exec spans = %+v, want one", execs)
			}
			if n := len(spanNamed(spans, "render.view")); n != 0 {
				t.Errorf("a failed run rendered %d views", n)
			}
		})
	}
}

// loopIsoScript builds its isovalues in a loop, which the static compile
// drops: only the run knows the contour's values.
const loopIsoScript = `from paraview.simple import *
reader = LegacyVTKReader(FileNames=['ml-100.vtk'])
contour1 = Contour(Input=reader)
contour1.ContourBy = ['POINTS', 'var0']
vals = []
for i in range(2):
    vals.append(0.3 * (i + 1))
contour1.Isosurfaces = vals
renderView1 = GetActiveViewOrCreate('RenderView')
renderView1.ViewSize = [160, 90]
contour1Display = Show(contour1, renderView1)
renderView1.ResetCamera()
SaveScreenshot('iso.png', renderView1, ImageResolution=[160, 90])
`

// TestEditAfterLoopWrittenFirstTurn: the session adopts the plan the
// first script ran, loop-built isovalues included, so an edit that
// changes nothing renders the first turn's picture byte for byte.
func TestEditAfterLoopWrittenFirstTurn(t *testing.T) {
	var current []byte // the plan the model proposes on an edit
	model := &llm.ClientFunc{ModelName: "loop", Fn: func(_ context.Context, req llm.Request) (llm.Response, error) {
		text := loopIsoScript
		if req.Task == llm.TaskPlanDelta {
			text = string(current)
		}
		return llm.Response{Text: text, Model: "loop", Attempts: 1}, nil
	}}
	runner := testRunner(t)
	s, err := NewSession(model, runner, WithUnassisted(true))
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Turn(context.Background(), "Read in the file named ml-100.vtk.")
	if err != nil || !first.Artifact.Success {
		t.Fatalf("first turn: err=%v success=%v", err, first != nil && first.Artifact.Success)
	}
	firstPNG := readShot(t, first)
	p := s.CurrentPlan()
	contour := p.Stage(p.FindClass("Contour"))
	if contour == nil || !contour.Props["Isosurfaces"].Equal(plan.NumsV(0.3, 0.6)) {
		t.Fatalf("adopted contour = %+v, want Isosurfaces [0.3, 0.6]", contour)
	}
	if current, err = p.Encode(); err != nil {
		t.Fatal(err)
	}
	edit, err := s.Turn(context.Background(), "Keep everything as it is.")
	if err != nil || !edit.Artifact.Success {
		t.Fatalf("edit turn: err=%v success=%v", err, edit != nil && edit.Artifact.Success)
	}
	if len(edit.ChangedStages) != 0 {
		t.Errorf("edit changed stages %v", edit.ChangedStages)
	}
	if !bytes.Equal(readShot(t, edit), firstPNG) {
		t.Error("the edit renders a different picture than the first turn")
	}
}

// readShot reads a turn's only screenshot.
func readShot(t *testing.T, turn *Turn) []byte {
	t.Helper()
	if len(turn.Artifact.Screenshots) != 1 {
		t.Fatalf("turn %d saved %d screenshots", turn.Index, len(turn.Artifact.Screenshots))
	}
	b, err := os.ReadFile(turn.Artifact.Screenshots[0])
	if err != nil {
		t.Fatal(err)
	}
	return b
}
