#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the build
# and the run write (Go build cache, binary, WAL scratch directories, span
# files) under .bench_build/ in the checkout. BENCHMARK.json names this
# script as the command; arguments pass through to the program:
#
#   bash bench/run.sh --workload propagation --seed 3 --seconds 10 --trace 0
#
# It fails (non-zero, nothing printed on stdout) when the repository's
# source is not there to build.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOFLAGS="-buildvcs=false"
export GOTOOLCHAIN=local
export GOPROXY=off
export TMPDIR="$build/tmp"
if [ -z "${BENCH_COMMIT:-}" ]; then
	BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi
export BENCH_COMMIT

go build -C "$root/bench" -o "$build/repro-bench" . >&2
exec "$build/repro-bench" "$@"
