#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload radix --seed 11 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ in the current directory: the Go build cache,
# the toolchain's config and telemetry files, the binary, and the serve-kv
# state directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build/perfbench"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= XDG_CONFIG_HOME="$build/config"
mkdir -p "$GOCACHE" "$GOTMPDIR" "$XDG_CONFIG_HOME"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --state "$build/state" "$@"
