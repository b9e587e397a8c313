#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash qbench/run.sh --workload vqe16-gd --seed 1 --seconds 20 --trace 0
#
# Build cache, temporary files and the binary stay under .bench_build in
# the current directory; the Go toolchain runs offline.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$(dirname "$0")" && go build -o "$out/qbench" .)
exec "$out/qbench" "$@"
