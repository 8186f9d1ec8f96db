#!/usr/bin/env bash
# The benchmark's command, as BENCHMARK.json names it: builds the
# benchmark from source and runs it from the root of the checkout this
# file is in. The Go build cache is kept inside the checkout
# (.bench_build/, ignored by git), so that a run reads and writes
# nothing outside it; the first run in a checkout therefore compiles the
# standard library too.
set -e
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/go-cache"
exec go run ./benchmark "$@"
