#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#	bash perfbench/run.sh --workload solo-sparse --seed 1 --seconds 12 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
