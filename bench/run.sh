#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload bf-cores --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (the binary, Go's build cache, its temp
# files and settings) stays under .bench_build in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

# The build's output goes to stderr: stdout carries only the result.
(cd bench && go build -o "$out/bench" .) >&2
exec "$out/bench" "$@"
