#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of a checkout. Everything the build and the run
# write stays under .bench_build/ in that checkout: the go tool's caches
# and configuration are pointed there so nothing lands in $HOME.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOENV=off
export GOFLAGS=
export GOWORK=off
export GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config"

go build -C "$root/benchmark" -o "$build/streams-bench" .
exec "$build/streams-bench" "$@"
