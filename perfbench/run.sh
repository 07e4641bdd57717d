#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload node-1Mi --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files, the go
# command's telemetry) stays under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" # the go command's telemetry counters
export GOTOOLCHAIN=local GOPROXY=off GOENV=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
