#!/usr/bin/env bash
# The BENCHMARK.json command: build lambdabench from this checkout's source
# into <checkout>/.bench_build and run it there. Everything the build and
# the run write — Go's build cache, the binary, the WAL temp dirs, the span
# file of a traced run — stays under .bench_build. exec leaves one process,
# so a signal reaches the benchmark itself.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$out/lambdabench" .
export TMPDIR="$out/tmp"
exec "$out/lambdabench" -spans "$out/spans.json" -benchmark-json "$root/BENCHMARK.json" "$@"
