#!/usr/bin/env bash
# Builds bench/leakbench from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload replay-baseline --seed 1 --seconds 25 --trace 0
#   bash bench/run.sh set -seed 1 -out bench/results/new.json
#   bash bench/run.sh compare BASE_DIR NEW_DIR
#
# The Go build cache, the binary, the benchmark's scratch files and the Go
# tools' own state (telemetry counters live under the config directory) all
# stay under .bench_build/ in the working directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOENV=off GOFLAGS= GOPROXY=off PPROF_TMPDIR="$out/tmp"
(cd "$root/bench" && go build -o "$out/leakbench" ./leakbench)
exec "$out/leakbench" "$@"
