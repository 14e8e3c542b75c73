#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build and the run write stays under .bench_build/ (the Go
# build cache included), so nothing outside the checkout is touched.
# Usage, from the repository root:
#   bash bench/run.sh --workload scan_agg --seed 42 --seconds 10 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" "$@"
