#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, e.g.
#
#   bash bench/run.sh --workload cli-scene --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -repeat 5          # every workload, 5 seeds each
#   bash bench/run.sh -summarize .bench_build/records
#
# Everything the Go toolchain writes (build cache, temporary files,
# telemetry) and everything the benchmark writes (run records, spans)
# stays under .bench_build at the root of the tree. Without the rest of
# the repository beside bench/ the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go -C bench build -o "$build/bench" . >&2
exec "$build/bench" "$@"
