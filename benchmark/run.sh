#!/usr/bin/env bash
# Contract entry point (BENCHMARK.json "command"): run the benchmark
# driver with every Go cache under <checkout>/.bench_build, so a run
# reads and writes only inside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
cd "$here"
exec go run . "$@"
