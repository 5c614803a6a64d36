package chatvis_bench

import (
	"testing"

	"chatvis/internal/benchkernels"
)

// isosurfaceAllocCeiling is the bench-smoke gate on the flagship
// kernel: a warm Substrate_Isosurface64 op on the arena-pooled SoA
// substrate runs in a few dozen allocations (output buffers only); the
// pre-overhaul figure was ~503k. The ceiling leaves two orders of
// magnitude of headroom over steady state while still catching any
// return of per-cell allocation.
const isosurfaceAllocCeiling = 50_000

// sparseContourAllocCeiling gates the sparse-field contour the same
// way: a mostly-empty sweep must not allocate per-chunk — empty chunk
// builders recycle through the arena's worker-affine slots just like
// full ones do.
const sparseContourAllocCeiling = 50_000

// extractSurfaceAllocCeiling gates the map-free surface kernel: a warm
// Substrate_ExtractSurface op allocates its CSR arrays and output
// (~60 objects); the map-based kernel it replaced made ~8.5k on the
// same grid.
const extractSurfaceAllocCeiling = 1_000

// volumeClipAllocCeiling gates the tetrahedral cell walk: a warm
// Substrate_VolumeClip op reads the image's voxels in place and
// allocates about 50 times (plane distances, chunk closures, the
// output); clipping through a materialized voxel grid and tet list made
// about 104k.
const volumeClipAllocCeiling = 1_000

// encodePNGAllocCeiling gates the screenshot encoder: a warm
// Substrate_EncodePNG op takes its deflate writer and buffers from a
// pool and allocates ~5 times. The runtime.GC before the measured op
// can empty the pool, and then the op builds a fresh writer (~37
// allocations), so the ceiling sits above that. It still catches any
// per-row allocation: the 320x180 frame has 180 rows.
const encodePNGAllocCeiling = 100

// surfaceRenderAllocCeiling and surfaceRenderBytesCeiling gate the
// pooled framebuffer: a warm Substrate_SurfaceRender op (640x360) draws
// into a recycled float framebuffer and allocates about 25 times and
// 0.93 MB, nearly all of it the returned 8-bit image (921,600 bytes).
// A fresh framebuffer per frame read 8.3 MB/op: the float planes are 32
// bytes a pixel, so its return crosses the bytes ceiling.
const (
	surfaceRenderAllocCeiling = 200
	surfaceRenderBytesCeiling = 2_000_000
)

// TestBenchSmokeAllocs runs each compute kernel once (after a warm-up
// op) and reports its allocation profile, failing if Isosurface64
// climbs back over the ceiling — the cheap `make bench-smoke` gate
// that runs in CI without the iteration counts of the full bench
// suite.
func TestBenchSmokeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke is not a -short test")
	}
	if benchkernels.RaceEnabled {
		t.Skip("allocation ceilings are meaningless under -race shadow allocation")
	}
	for _, name := range benchkernels.ComputeOrder {
		allocs, bytes := benchkernels.MeasureOnce(t, name)
		t.Logf("%-26s %8d allocs/op %12d B/op (warm)", name, allocs, bytes)
		if name == "Substrate_Isosurface64" && allocs > isosurfaceAllocCeiling {
			t.Errorf("%s allocated %d times in one warm op; ceiling is %d — the SoA/arena path regressed",
				name, allocs, isosurfaceAllocCeiling)
		}
		if name == "Substrate_ExtractSurface" && allocs > extractSurfaceAllocCeiling {
			t.Errorf("%s allocated %d times in one warm op; ceiling is %d — the map-free face kernel regressed",
				name, allocs, extractSurfaceAllocCeiling)
		}
		if name == "Substrate_VolumeClip" && allocs > volumeClipAllocCeiling {
			t.Errorf("%s allocated %d times in one warm op; ceiling is %d — the volume cell walk regressed",
				name, allocs, volumeClipAllocCeiling)
		}
		if name == "Substrate_EncodePNG" && allocs > encodePNGAllocCeiling {
			t.Errorf("%s allocated %d times in one warm op; ceiling is %d — the pooled encoder regressed",
				name, allocs, encodePNGAllocCeiling)
		}
		if name == "Substrate_SurfaceRender" && (allocs > surfaceRenderAllocCeiling || bytes > surfaceRenderBytesCeiling) {
			t.Errorf("%s allocated %d times and %d bytes in one warm op; ceilings are %d and %d — the pooled framebuffer regressed",
				name, allocs, bytes, surfaceRenderAllocCeiling, surfaceRenderBytesCeiling)
		}
		if name == "Substrate_SparseContour64" && allocs > sparseContourAllocCeiling {
			t.Errorf("%s allocated %d times in one warm op; ceiling is %d — the sparse-sweep arena path regressed",
				name, allocs, sparseContourAllocCeiling)
		}
	}
}
