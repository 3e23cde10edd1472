#!/usr/bin/env bash
# The benchmark's entry point for BENCHMARK.json: build the program from
# source inside the checkout, then run it with the arguments given.
# Everything built or written stays under the checkout: the binary and what
# the go command keeps (build cache, module path, its own counters) in
# .bench_build/, state and results in bench/out/.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
	go build -o "$build/agentrec-bench" .
exec "$build/agentrec-bench" "$@"
