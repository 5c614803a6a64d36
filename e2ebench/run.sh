#!/usr/bin/env bash
# Builds chatvisd and the benchmark driver from this checkout, then runs
# the driver with the given arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload cold-mix --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binaries) and every
# daemon's state stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/chatvisd" ]]; then
	echo "e2ebench: run from the repository root; go.mod or cmd/chatvisd is missing" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
mkdir -p "$GOTMPDIR"
# With telemetry on (the default "local" mode) the go command forks a
# detached sidecar that outlives the build; turning it off keeps every
# process this script starts inside its lifetime.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$build/bin/chatvisd" ./cmd/chatvisd
go -C e2ebench build -o "$build/bin/e2ebench" .
exec "$build/bin/e2ebench" "$@"
