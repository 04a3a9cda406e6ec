#!/usr/bin/env bash
# Builds the benchmark and quicknnd from the sources of the checkout it is
# run from, then runs one measurement. Run it from the repository root:
#
#   bash _perfbench/run.sh --workload drive --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, binaries, trace files) goes
# to .bench_build/ in the checkout. Outside a full checkout the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The go command's cache, module path, temporary files and its config
# directory (telemetry counters) all stay inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off

cd "$root/_perfbench"
go build -o "$out/perfbench" .
go build -o "$out/quicknnd" github.com/quicknn/quicknn/cmd/quicknnd
cd "$root"
exec "$out/perfbench" --quicknnd "$out/quicknnd" --out "$out" "$@"
