#!/usr/bin/env bash
# Builds the benchmark from the source tree it is run in and runs it:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the go tool would write
# elsewhere (build cache, temporary files, settings) is kept under
# .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOTOOLCHAIN=local GOTELEMETRY=off
go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
