#!/bin/sh
# Builds the harness from source and runs it, with the Go build cache and
# every other output under .bench_build/ in the checkout: nothing is read
# from or written to the home directory. This is BENCHMARK.json's command;
# `go run -C bench .` does the same with the user's own build cache.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
export GOCACHE="$root/.bench_build/gocache" GOPROXY=off GOTOOLCHAIN=local
go build -C "$root/bench" -o "$root/.bench_build/bench" .
cd "$root"
exec "$root/.bench_build/bench" "$@"
