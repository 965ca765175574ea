#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it
# from the repository root with the benchmark's flags, for example:
#
#   bash perfbench/run.sh --workload compile-cold --seed 1 --seconds 20 --trace 0
#
# Everything it writes (the Go build cache, the binary, scratch cache
# stores, trace files) goes under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOWORK=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

# The benchmark is its own module; its go.mod points back at the
# repository root, so the build fails when the sources are not there.
go -C "$root/perfbench" build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" --out "$out/perfbench" "$@"
