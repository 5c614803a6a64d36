package obs

import (
	"runtime"
	"runtime/debug"
)

// runtimeStats is a point-in-time snapshot of the Go runtime for the
// chatvis_go_* families — goroutines, heap, and GC activity.
type runtimeStats struct {
	Goroutines     int
	HeapAllocBytes uint64
	HeapSysBytes   uint64
	HeapObjects    uint64
	GCCycles       uint32
	GCPauseNsTotal uint64
	NextGCBytes    uint64
}

// readRuntimeStats samples the runtime. ReadMemStats briefly stops the
// world; the registry reads it once per scrape, which is well within
// budget.
func readRuntimeStats() runtimeStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeStats{
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: m.HeapAlloc,
		HeapSysBytes:   m.HeapSys,
		HeapObjects:    m.HeapObjects,
		GCCycles:       m.NumGC,
		GCPauseNsTotal: m.PauseTotalNs,
		NextGCBytes:    m.NextGC,
	}
}

// BuildInfo identifies the running binary for the
// chatvis_build_info{version,go_version,node_id} gauge.
type BuildInfo struct {
	Version   string
	GoVersion string
}

// ReadBuildInfo resolves the binary's version: an explicit version
// (set via -ldflags "-X main.version=...") wins, else the module
// version embedded by the toolchain, else "devel".
func ReadBuildInfo(explicit string) BuildInfo {
	bi := BuildInfo{Version: explicit, GoVersion: runtime.Version()}
	if bi.Version != "" {
		return bi
	}
	if info, ok := debug.ReadBuildInfo(); ok && info.Main.Version != "" && info.Main.Version != "(devel)" {
		bi.Version = info.Main.Version
		return bi
	}
	bi.Version = "devel"
	return bi
}
