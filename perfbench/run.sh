#!/usr/bin/env bash
# Builds perfbench from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload calibrate_bcast --seed 1 --seconds 8 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, result records,
# traces and scratch calibration stores.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
