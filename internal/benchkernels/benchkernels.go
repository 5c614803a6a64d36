// Package benchkernels holds the substrate micro-benchmark kernels —
// the single definition shared by the root BenchmarkSubstrate_* suite
// (bench_test.go), the bench-smoke allocation gate and cmd/benchcore,
// so the BENCH_substrate.json perf trajectory always measures exactly
// the workload `go test -bench BenchmarkSubstrate_` runs. Tune a
// kernel here and all three stay in sync.
package benchkernels

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"testing"

	"chatvis/internal/chatvis"
	"chatvis/internal/datagen"
	"chatvis/internal/filters"
	"chatvis/internal/llm"
	"chatvis/internal/pvpython"
	"chatvis/internal/render"
	"chatvis/internal/vmath"
	"chatvis/internal/vtkio"
)

// Order fixes the reporting order of the shared kernels.
// SparseContour64 and SkewedClip are the deliberately imbalanced pair:
// their work is concentrated in a sliver of the sweep's index space, so
// their parallel speedup shows the load-balance cost of the static
// chunk split that the uniform kernels cannot.
var Order = []string{
	"Substrate_Isosurface64",
	"Substrate_StreamTracer",
	"Substrate_SurfaceRender",
	"Substrate_VolumeRayCast",
	"Substrate_ClipPolyData",
	"Substrate_SparseContour64",
	"Substrate_SkewedClip",
	"Substrate_ExtractSurface",
	"Substrate_EncodePNG",
	"Substrate_SessionEditTurn",
}

// ComputeOrder is Order restricted to the pure compute kernels — the
// ones bench-smoke measures (the session kernel drags in temp dirs and
// the whole session engine, which is not an allocation story).
var ComputeOrder = Order[:9]

// Kernel is one substrate micro-benchmark: Setup builds the input
// state (outside any timing) and returns the op to measure.
type Kernel struct {
	Setup func(tb testing.TB) func()
}

// Bench runs a kernel as a standard Go benchmark body: setup, reset
// the timer, then b.N ops.
func Bench(b *testing.B, name string) {
	k, ok := Substrate[name]
	if !ok {
		b.Fatalf("unknown substrate kernel %q", name)
	}
	op := k.Setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// MeasureOnce runs a kernel's setup, one warm-up op (so arenas and
// free lists reach steady state — the regime the benchmarks report),
// then measures a single op with runtime.MemStats. It is the cheap
// path for smoke-testing allocation ceilings without the iteration
// count of testing.Benchmark.
func MeasureOnce(tb testing.TB, name string) (allocs, bytes uint64) {
	k, ok := Substrate[name]
	if !ok {
		tb.Fatalf("unknown substrate kernel %q", name)
	}
	op := k.Setup(tb)
	op() // warm-up: populate arenas, grow scratch to workload size
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	op()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// Substrate maps kernel name to its definition.
var Substrate = map[string]Kernel{
	"Substrate_Isosurface64": {
		Setup: func(tb testing.TB) func() {
			vol := datagen.MarschnerLobb(64)
			return func() {
				if _, err := filters.Contour(vol, "var0", 0.5); err != nil {
					tb.Fatal(err)
				}
			}
		},
	},
	"Substrate_StreamTracer": {
		Setup: func(tb testing.TB) func() {
			disk := datagen.DiskFlow(8, 32, 8)
			sampler, err := filters.NewGridSampler(disk, "V")
			if err != nil {
				tb.Fatal(err)
			}
			seeds := filters.DefaultPointCloudSeeds(disk.Bounds(), 50)
			return func() {
				filters.StreamTracer(sampler, seeds, filters.StreamTracerOptions{})
			}
		},
	},
	"Substrate_SurfaceRender": {
		Setup: func(tb testing.TB) func() {
			vol := datagen.MarschnerLobb(48)
			surf, err := filters.Contour(vol, "var0", 0.5)
			if err != nil {
				tb.Fatal(err)
			}
			filters.ComputePointNormals(surf)
			r := render.NewRenderer()
			r.AddActor(render.NewActor(surf))
			r.ResetCamera()
			return func() {
				r.Render(640, 360)
			}
		},
	},
	"Substrate_VolumeRayCast": {
		Setup: func(tb testing.TB) func() {
			vol := datagen.MarschnerLobb(48)
			r := render.NewRenderer()
			r.AddVolume(render.NewVolumeActor(vol, "var0"))
			r.ResetCamera()
			return func() {
				r.Render(320, 180)
			}
		},
	},
	"Substrate_ClipPolyData": {
		Setup: func(tb testing.TB) func() {
			vol := datagen.MarschnerLobb(48)
			surf, err := filters.Contour(vol, "var0", 0.5)
			if err != nil {
				tb.Fatal(err)
			}
			plane := vmath.NewPlane(vmath.V(0, 0, 0), vmath.V(-1, 0, 0))
			return func() {
				filters.ClipPolyData(surf, plane)
			}
		},
	},
	// Substrate_SparseContour64 marches a volume whose only isosurface
	// crossings sit in the tail of the cell sweep (a corner blob): ~90%
	// of chunks are empty classification passes and the last stretch
	// does all the vertex interpolation — the straggler shape static
	// chunking loses to.
	"Substrate_SparseContour64": {
		Setup: func(tb testing.TB) func() {
			vol := datagen.SparseBlob(64)
			return func() {
				if _, err := filters.Contour(vol, "var0", 0.5); err != nil {
					tb.Fatal(err)
				}
			}
		},
	},
	// Substrate_SkewedClip clips a surface with a plane that discards
	// everything except a thin z-tail: polygons that survive (and pay
	// for Sutherland–Hodgman + point interpolation) are concentrated at
	// the end of the polygon sweep, so a few chunks carry all the work.
	"Substrate_SkewedClip": {
		Setup: func(tb testing.TB) func() {
			vol := datagen.MarschnerLobb(48)
			surf, err := filters.Contour(vol, "var0", 0.5)
			if err != nil {
				tb.Fatal(err)
			}
			plane := vmath.NewPlane(vmath.V(0, 0, 0.6), vmath.V(0, 0, 1))
			return func() {
				filters.ClipPolyData(surf, plane)
			}
		},
	},
	// Substrate_ExtractSurface extracts the render surface of a clipped
	// 48³ volume: the work the renderer does for every displayed
	// unstructured grid (Clip, Threshold, Delaunay3D, ExodusII output)
	// that is not already in the dataset cache.
	"Substrate_ExtractSurface": {
		Setup: func(tb testing.TB) func() {
			plane := vmath.NewPlane(vmath.V(0, 0, 0), vmath.V(-1, 0, 0))
			clip, err := filters.ClipUnstructured(filters.ImageToGrid(datagen.MarschnerLobb(48)), plane)
			if err != nil {
				tb.Fatal(err)
			}
			return func() {
				filters.ExtractSurface(clip)
			}
		},
	},
	// Substrate_EncodePNG encodes one 320x180 screenshot (the
	// benchmark view size) of the DataSmall isosurface: the tail every
	// executed request pays in SaveScreenshot.
	"Substrate_EncodePNG": {
		Setup: func(tb testing.TB) func() {
			surf, err := filters.Contour(datagen.MarschnerLobb(24), "var0", 0.5)
			if err != nil {
				tb.Fatal(err)
			}
			filters.ComputePointNormals(surf)
			r := render.NewRenderer()
			r.AddActor(render.NewActor(surf))
			r.ResetCamera()
			img := r.Render(320, 180)
			return func() {
				if err := render.EncodePNG(io.Discard, img); err != nil {
					tb.Fatal(err)
				}
			}
		},
	},
	// Substrate_SessionEditTurn measures one conversational edit turn on
	// a warm session: PlanDelta + validation + incremental ExecPlan. The
	// pipeline is reader → contour (the expensive stage, on a 48³
	// volume) → clip; the edit alternates the clip plane, so every turn
	// genuinely recomputes one stage (never a no-op) while the session
	// engine answers the isosurfacing upstream of it from its memo —
	// the steady-state cost of "the user nudges a parameter".
	"Substrate_SessionEditTurn": {
		Setup: func(tb testing.TB) func() {
			sess := NewWarmSession(tb)
			i := 0
			return func() {
				turn, err := sess.Turn(context.Background(),
					fmt.Sprintf("Move the clip to x=0.%d.", 1+(i%2)))
				i++
				if err != nil {
					tb.Fatal(err)
				}
				if !turn.Artifact.Success {
					tb.Fatalf("edit turn failed: %s", turn.Artifact.Iterations[0].Output)
				}
			}
		},
	},
}

// SessionEditBenchPrompt renders the request the session benchmarks
// build from (oracle model: the measured cost is the machinery, not the
// model). The clip offset is the knob the edit turns nudge.
func SessionEditBenchPrompt(clipX string) string {
	return fmt.Sprintf("Please generate a ParaView Python script for the following operations. Read in the file named ml-100.vtk. Generate an isosurface of the variable var0 at value 0.5. Clip the data with a y-z plane at x=%s, keeping the -x half of the data and removing the +x half. Save a screenshot of the result in the filename iso.png. The rendered view and saved screenshot should be 160 x 90 pixels.", clipX)
}

// SessionFirstPrompt is the turn-1 request of the session benchmarks.
var SessionFirstPrompt = SessionEditBenchPrompt("0")

// SessionBenchRunner writes the benchmark volume (48³, so the contour
// stage genuinely costs something) and returns a runner over it, shared
// by the session kernel and the root session benchmarks.
func SessionBenchRunner(tb testing.TB) *pvpython.Runner {
	tb.Helper()
	dataDir := tb.TempDir()
	if err := vtkio.SaveLegacyVTK(filepath.Join(dataDir, "ml-100.vtk"),
		datagen.MarschnerLobb(48), "ml"); err != nil {
		tb.Fatal(err)
	}
	return &pvpython.Runner{DataDir: dataDir, OutDir: tb.TempDir()}
}

// NewWarmSession builds a session and runs its first turn so the
// engine memo is primed; callers then measure edit turns.
func NewWarmSession(tb testing.TB) *chatvis.Session {
	tb.Helper()
	model, err := llm.NewModel("oracle")
	if err != nil {
		tb.Fatal(err)
	}
	sess, err := chatvis.NewSession(model, SessionBenchRunner(tb))
	if err != nil {
		tb.Fatal(err)
	}
	turn, err := sess.Turn(context.Background(), SessionFirstPrompt)
	if err != nil {
		tb.Fatal(err)
	}
	if !turn.Artifact.Success {
		tb.Fatalf("first turn failed:\n%s", turn.Artifact.Iterations[len(turn.Artifact.Iterations)-1].Output)
	}
	return sess
}
