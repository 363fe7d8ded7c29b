#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it; every
# argument goes to the benchmark (see README.md). All build products stay
# inside the checkout: Go's cache under .bench_build/, binaries and run
# output under bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
mkdir -p bench/out/bin
go -C bench build -o out/bin/bench .
exec bench/out/bin/bench "$@"
