#!/usr/bin/env bash
# Builds the host-time benchmark from source and runs it with the given
# arguments, from the repository root:
#
#   bash hostbench/run.sh --workload m2o_classic --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build): the Go build
# cache and temporary files, the binary, and the spans and profiles of
# traced runs.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=
mkdir -p "$GOTMPDIR"

(cd hostbench && go build -o "$build/hostbench" .)
exec "$build/hostbench" --out "$build/hostbench-out" "$@"
