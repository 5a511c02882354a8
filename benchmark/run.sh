#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash benchmark/run.sh --workload replay --seed 1 --seconds 12 --trace 0
#
# The Go build cache, temporary build files and the binary live under
# .bench_build in the checkout, so a run reads and writes nothing
# outside it. Build errors go to stderr and the script exits non-zero
# without printing a result.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gopath"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd benchmark && go build -o "$build/gskew-bench" .)
exec "$build/gskew-bench" "$@"
