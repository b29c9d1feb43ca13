#!/usr/bin/env bash
# Builds the qcongest benchmark from source inside the current checkout and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload bfs-grid-1m --seed 1 --seconds 38 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, result files) goes under $CARGO_TARGET_DIR, or
# .bench_build when that is unset.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

# Keep the Go tool's cache, module path, temporary files, configuration
# and telemetry inside the build directory.
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config XDG_CACHE_HOME=$build/cache
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/results" "$@"
