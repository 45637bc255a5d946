#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root; everything it builds or writes stays
# under .bench_build there. Example:
#
#   bash e2ebench/run.sh --workload live-replay --seed 1 --seconds 20 --trace 0
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off
# Keep freed heap mapped (MADV_FREE) instead of handing it back and faulting
# it in again: page faults on a virtual machine vary in cost from minute to
# minute, and every zombie registration allocates from freed heap.
export GODEBUG=madvdontneed=0

(cd "$here" && go build -buildvcs=false -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
