# CI entry points. `make ci` is the gate: formatting, vet, the plan
# validation of every example pipeline, the full test suite under the
# race detector (the eval grid runner, the llm cache/registry and the
# chatvisd queue/coalescing paths are exercised concurrently in their
# tests), and the daemon smoke step.

GO ?= go

.PHONY: ci fmt vet test test-race test-race-service bench bench-core bench-diff bench-grid bench-serve bench-smoke bench-e2e-test build serve smoke smoke-cluster plan-validate lint-metrics calibrate-smoke fuzz-smoke

ci: fmt vet plan-validate lint-metrics calibrate-smoke test-race fuzz-smoke bench-e2e-test bench-smoke smoke smoke-cluster

# Time-boxed native fuzzing. FuzzPlanPathImpliesInterpreter checks the
# property one execution per turn rests on: whenever a script's plan
# runs successfully, the interpreter runs the script successfully too
# (seeded from every scenario corpus script; fuzzed views are capped at
# 400 pixels a side). FuzzExtractSurface checks the map-free surface
# kernel against the map-based reference on arbitrary valid cells.
# FuzzReadLegacyVTK feeds arbitrary bytes to the legacy VTK reader (no
# panic; accepted datasets have in-range cell ids and full-length point
# fields); its seeds are whole DataSmall datasets (up to ~280 KB), so
# minimizing each new input is capped at 1s or it would eat the budget.
# FuzzReadExodus does the same for the Exodus-II reader, seeded with the
# DataSmall disk grid (header counts never size an allocation).
# FuzzEncodePNG decodes the screenshot encoder's output of
# random opaque images with the stdlib decoder. FuzzOpenWAL opens
# arbitrary bytes as a WAL segment (no panic, every recovered record has
# an ID, reopening recovers the same list); each input costs two
# fsynced opens, so minimizing is capped at 1s like the VTK target.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzPlanPathImpliesInterpreter$$' -fuzztime 20s -parallel 2 ./internal/eval
	$(GO) test -run '^$$' -fuzz '^FuzzExtractSurface$$' -fuzztime 10s -parallel 2 ./internal/filters
	$(GO) test -run '^$$' -fuzz '^FuzzReadLegacyVTK$$' -fuzztime 10s -fuzzminimizetime 1s -parallel 2 ./internal/vtkio
	$(GO) test -run '^$$' -fuzz '^FuzzReadExodus$$' -fuzztime 10s -fuzzminimizetime 1s -parallel 2 ./internal/vtkio
	$(GO) test -run '^$$' -fuzz '^FuzzEncodePNG$$' -fuzztime 10s -parallel 2 ./internal/render
	$(GO) test -run '^$$' -fuzz '^FuzzOpenWAL$$' -fuzztime 10s -fuzzminimizetime 1s -parallel 2 ./internal/cluster

# The end-to-end benchmark driver is its own Go module (e2ebench/), which
# the root `go test ./...` skips: vet and test it here, so a change to
# eval, imgcmp, llm or pvpython that breaks the driver fails CI instead
# of the benchmark run.
bench-e2e-test:
	$(GO) -C e2ebench vet ./... && $(GO) -C e2ebench test ./...

# Metrics contract gate. The obs registry panics at declare time on a
# name outside ^chatvis_[a-z][a-z0-9_]*$, a duplicate, or a counter
# without _total (or a _total non-counter); TestMetricsContract scrapes
# a fully-attached in-memory daemon under both negotiations and fails
# unless the scrape is exactly the declared set of families, with no
# undeclared sample and no repeated series.
lint-metrics:
	$(GO) test -run '^TestMetricsContract$$' -count=1 ./internal/service

# Routing calibration gate: probe the sim registry twice over a fixed
# 2-scenario slice into a scratch directory and fail unless the
# measurements are deterministic and the compiled routes price
# edit-intent below cold writes (docs/routing.md). Writes no profiles.
calibrate-smoke:
	$(GO) run ./cmd/calibrate -smoke -q 		-data $${TMPDIR:-/tmp}/chatvis-calibrate-smoke/data 		-out $${TMPDIR:-/tmp}/chatvis-calibrate-smoke/out

# Compile + schema-validate every example pipeline (scenario ground
# truths, plan-native IRs, writer/intent agreement) — fails fast on any
# schema or IR drift, before the test suite renders anything.
plan-validate:
	$(GO) run ./cmd/planlint

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Focused race pass over the serving subsystem (queue, coalescing,
# store, handlers, daemon wiring) — a faster loop than the full suite.
test-race-service:
	$(GO) test -race -count=1 ./internal/service ./cmd/chatvisd

# Run the chatvisd HTTP daemon locally.
serve:
	$(GO) run ./cmd/chatvisd -addr :8080 -data data -out out

# CI smoke: start the daemon wiring on a real listener, submit a job
# against the stub LLM profile, poll it to completion, fetch artifacts
# by hash, drive a two-turn session (create → edit → assert only the
# changed stage re-executed), and drain the queue.
smoke:
	$(GO) test -run 'TestDaemonSmoke|TestDaemonConcurrentIdenticalSubmissions|TestDaemonSessionTwoTurns' -count=1 ./cmd/chatvisd

# Cluster smoke: boot three full daemons on loopback sharing one store,
# post the identical prompt to all three at once, and require exactly
# one pipeline execution fleet-wide; then drive a session turn through a
# non-owner node to prove shard-ring forwarding. The trace propagation
# step submits through a non-owner and requires ONE stitched trace
# (queue wait, LLM tokens, plan stages, forward hop) across both nodes.
smoke-cluster:
	$(GO) test -race -run 'TestClusterSmoke3Nodes|TestClusterTracePropagation' -count=1 ./cmd/chatvisd

# All paper-reproduction benchmarks (tables, figures, ablations).
bench:
	$(GO) test -bench=. -benchmem .

# Machine-readable perf trajectory of the compute substrate: runs the
# BenchmarkSubstrate_* kernels at worker counts {1,4,8} and rewrites
# BENCH_substrate.json (ns/op, allocs/op, B/op, GOMAXPROCS, speedup)
# so future PRs can diff hot-path performance.
bench-core:
	$(GO) run ./cmd/benchcore -out BENCH_substrate.json

# Perf regression gate: re-run the substrate kernels and fail when any
# (kernel, worker-count) pair regresses >25% in ns/op, allocs/op, B/op
# or parallel speedup vs the committed BENCH_substrate.json baseline.
# Refuses baselines recorded on a different core count (timings would
# compare machines, not code) unless -allow-cpu-mismatch downgrades
# that to allocation-only gating. Run on a quiet machine.
bench-diff:
	$(GO) run ./cmd/benchcore -diff BENCH_substrate.json

# Fast allocation smoke gate (part of `make ci`): run each compute
# kernel once warm and fail if Substrate_Isosurface64 allocates past
# its ceiling — catches any return of per-cell allocation without the
# runtime of the full benchmark suite.
bench-smoke:
	$(GO) test -run TestBenchSmokeAllocs -count=1 -v .

# Just the serial-vs-concurrent grid sweep comparison.
bench-grid:
	$(GO) test -run xxx -bench BenchmarkGridThroughput -benchtime 3x .

# The serving-layer throughput benchmark (coalescing + store hits).
bench-serve:
	$(GO) test -run xxx -bench BenchmarkServiceThroughput -benchtime 20x .
