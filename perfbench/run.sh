#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload guided --seed 1 --seconds 40 --trace 0
#
# The build cache, temporary files and the binary stay inside the
# checkout, under .bench_build/ (override with CARGO_TARGET_DIR, which
# names the build directory of every language's benchmark).
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off GOWORK=off

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
