#!/usr/bin/env bash
# Builds the layered benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash mc3perf/run.sh --workload serve-solve --seed 1 --seconds 10 --trace 0
#
# The build cache and the binary live in .bench_build/ at the root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/mc3perf" && go build -o "$out/mc3perf" .)
exec "$out/mc3perf" "$@"
