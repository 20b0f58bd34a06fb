#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# BENCHMARK.json names this script as the benchmark's command: the driver
# calls it from the root of a checkout as
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the Go toolchain writes — build cache, temporary files, its
# own configuration — is kept inside the checkout, under .bench_build.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ ! -f "$root/go.mod" ]; then
  echo "benchmark/run.sh: $root holds no go.mod: the benchmark is built from the repository's source" >&2
  exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
# With a fresh configuration directory the go command would start a
# detached telemetry child that outlives this script; switch it off.
echo off > "$build/config/go/telemetry/mode"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

cd "$root"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
