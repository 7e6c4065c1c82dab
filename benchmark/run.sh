#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, keeping the
# build cache, the binary and every scratch file inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
# The report's header names the commit; the driver's checkout has none.
commit=$(git describe --always --dirty --abbrev=40 2>/dev/null || echo unknown)
go build -ldflags "-X main.buildCommit=$commit" -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
