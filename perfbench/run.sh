#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload synth-6502 --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and every other file the toolchain writes
# go under .bench_build/ in the checkout. The build fails, and the script
# exits non-zero without printing a result, when the repository sources
# are missing.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
