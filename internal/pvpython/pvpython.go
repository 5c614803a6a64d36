// Package pvpython simulates the `pvpython` batch interpreter: it executes
// ParaView Python script text against the simulated engine and returns
// what a subprocess invocation would produce — combined stdout/stderr text
// (including CPython-style tracebacks on failure) plus the screenshots the
// script saved. The ChatVis loop treats this output exactly as the paper
// treats PvPython subprocess output.
package pvpython

import (
	"bytes"
	"context"
	"fmt"

	"chatvis/internal/data"
	"chatvis/internal/plan"
	"chatvis/internal/pvsim"
	"chatvis/internal/pypy"
)

// Result is the outcome of one script execution.
type Result struct {
	// Output is the combined stdout/stderr text, traceback included.
	Output string
	// Err is the structured error (nil on success): *pypy.SyntaxError or
	// *pypy.PyError.
	Err error
	// Screenshots lists the saved screenshots' references (file paths
	// without a Sink), in the order of Plan's screenshot stages; a run
	// that fails saves none.
	Screenshots []string
	// Plan is the normalized plan the script lowered to, whose execution
	// rendered Screenshots (nil when the run failed).
	Plan *plan.Plan
	// Engine exposes the session for callers that inspect state (tests,
	// the evaluation harness reading rendered pixels).
	Engine *pvsim.Engine
}

// OK reports whether the run completed without error.
func (r *Result) OK() bool { return r.Err == nil }

// Runner executes scripts with a fixed data directory and output
// directory, like a pvpython binary invoked from a working directory.
type Runner struct {
	// DataDir resolves input dataset names.
	DataDir string
	// OutDir receives screenshots as files when Sink is nil.
	OutDir string
	// Sink, when set, receives the screenshots instead of OutDir.
	Sink pvsim.ScreenshotSink
	// MaxSteps bounds interpreter execution (default 5M).
	MaxSteps int
	// Cache, when set, is shared with every engine this runner creates:
	// repeated executions of unchanged pipeline stages (repair
	// iterations, concurrent jobs on the same inputs) are answered from
	// the content-hash dataset cache instead of recomputed.
	Cache *data.Cache
}

// Exec runs one script in a fresh simulated ParaView session.
func (r *Runner) Exec(script string) *Result {
	return r.ExecOn(context.Background(), r.NewEngine(), script)
}

// ExecOn runs one script on the given engine; a session passes its own,
// whose stage memo then holds what the script computed. ctx is threaded
// into filter execution and rendering, so canceling a chatvisd job
// aborts the compute-heavy stages mid-script. The interpreter records
// what the script does; the engine renders its screenshots from the
// plan it lowers to (pvsim.Engine.Run).
func (r *Runner) ExecOn(ctx context.Context, engine *pvsim.Engine, script string) *Result {
	var out bytes.Buffer
	interp := pypy.NewInterp(&out)
	if r.MaxSteps > 0 {
		interp.MaxSteps = r.MaxSteps
	}
	interp.RegisterModule(buildParaviewRootExtras())
	p, err := engine.Run(ctx, interp, script)
	res := &Result{Engine: engine, Plan: p}
	if err != nil {
		switch e := err.(type) {
		case *pypy.SyntaxError:
			fmt.Fprintln(&out, e.Error())
		case *pypy.PyError:
			fmt.Fprintln(&out, e.Traceback(interp.File, interp.SourceLine(e.Line)))
		default:
			fmt.Fprintf(&out, "Error: %v\n", err)
		}
		res.Err = err
	} else {
		res.Screenshots = engine.Screenshots
	}
	res.Output = out.String()
	return res
}

// NewEngine builds an engine over the runner's directories, screenshot
// sink and dataset cache.
func (r *Runner) NewEngine() *pvsim.Engine {
	e := pvsim.NewEngine(r.DataDir, r.OutDir)
	if r.Sink != nil {
		e.Sink = r.Sink
	}
	e.DataCache = r.Cache
	return e
}

// buildParaviewRootExtras adds the handful of attributes scripts reference
// on the `paraview` package itself (paraview.simple._DisableFirst... is
// reached through the simple module; this covers e.g. print_warning).
func buildParaviewRootExtras() *pypy.ModuleVal {
	return &pypy.ModuleVal{
		Name: "paraview.servermanager",
		Attrs: map[string]pypy.Value{
			"vtkSMProxyManager": pypy.Str("<proxy manager>"),
		},
	}
}
