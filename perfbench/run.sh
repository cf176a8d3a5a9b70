#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root:
#
#   bash perfbench/run.sh --workload tail-reads --seed 1 --seconds 12 --trace 0
#
# The benchmark is a Go module of its own that imports the repository
# through a replace directive, so it builds against the checked-out source.
# The build cache, the binary and everything the benchmark caches or writes
# live under .bench_build in the working directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOWORK=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
