#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given flags.
# Run it from the repository root:
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
# Build outputs and traces stay under .bench_build in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOENV=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
