#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json names this
# script as the benchmark's command. Everything the build writes — the Go
# build cache included — stays under .bench_build/ at the repository root.
# Arguments are passed through: see `bash bench/run.sh -h`.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/concord-bench" .)
cd "$root"
exec "$build/concord-bench" "$@"
