#!/usr/bin/env bash
# Runs the benchmark from the repository root, as BENCHMARK.json names it:
#
#   bash bench/run.sh --workload translate-cold --seed 1 --seconds 20 --trace 0
#
# Builds the harness and interopd from source. Their outputs, the Go build
# cache, the go command's own config and telemetry files and every scratch
# file stay under .bench_build/ in the working directory, and no module or
# toolchain is fetched.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C bench build -o "$out/interopbench" ./interopbench
exec "$out/interopbench" "$@"
