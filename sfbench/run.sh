#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a checkout of the repository:
#
#   bash sfbench/run.sh --workload screen --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache, the binary, temporary files and spans.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOTOOLCHAIN=local GOMODCACHE="$out/gomodcache"
go -C "$root/sfbench" build -o "$out/sfbench" .
exec "$out/sfbench" "$@"
