#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload train-1rank --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, scratch
# datasets) stays under .bench_build/ in the current directory. Without the
# repository's sources beside perfbench/ the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -workdir "$build" "$@"
