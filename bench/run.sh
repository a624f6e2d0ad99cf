#!/usr/bin/env bash
# run.sh — the entry BENCHMARK.json names: build bench from source inside
# the checkout and run it with the driver's arguments
# (--workload W --seed N --seconds S --trace 0|1).
#
# The Go build cache and temp dir are pinned under .bench_build/ so that
# nothing is read or written outside the checkout; the first run in a fresh
# checkout therefore compiles the standard library too (about a minute).
# Run from the repository root. Outside a module root `go build` fails and
# the script exits non-zero without printing a result.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS=-buildvcs=false

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
