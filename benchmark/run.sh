#!/usr/bin/env bash
# The BENCHMARK.json command: build nasgo-bench from the checkout's source and
# run it with the arguments given. Everything the toolchain writes — build
# cache, temporary files, the binary — goes under .bench_build/ in the
# checkout, so a run reads and writes nothing outside it. The first build in a
# checkout compiles the standard library too (about half a minute on two
# cores); later ones take a fraction of a second.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/nasgo-bench" ./benchmark
exec "$build/nasgo-bench" "$@"
