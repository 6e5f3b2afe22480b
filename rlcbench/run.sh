#!/usr/bin/env bash
# Builds the benchmark and the rlcxd daemon from this checkout's sources
# into .bench_build/, then runs the benchmark from the checkout root with
# the given arguments, for example:
#
#   bash rlcbench/run.sh --workload tree-skew --seed 3 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
# The module needs nothing outside this checkout: never download.
export GOPROXY=off
export GOFLAGS=
export GOTELEMETRY=off

(cd "$root/rlcbench" && go build -o "$build/rlcbench" .)
(cd "$root" && go build -o "$build/rlcxd" ./cmd/rlcxd)

cd "$root"
exec "$build/rlcbench" "$@"
