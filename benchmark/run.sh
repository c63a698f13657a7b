#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. This is BENCHMARK.json's command; by hand,
# `go run -C benchmark .` does the same with the user's own Go cache.
#
# Everything the build writes stays under <checkout>/.bench_build, and
# nothing is fetched: the benchmark imports only the standard library
# and this repository's own module.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/../.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly

cd "$here"
go build -o "$build/tempo-benchmark" .
exec "$build/tempo-benchmark" "$@"
