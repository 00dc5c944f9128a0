#!/bin/sh
# Builds the benchmark from this checkout's sources and runs it with the
# given flags (see bench/README.md). Run from the repository root:
#
#   sh bench/run.sh -workload paper -seed 1 -seconds 15
#
# Everything the build and the runs write stays under .bench_build/ and
# bench/out/: the Go build cache and temporary files included.
set -eu
root=$(pwd)
if [ ! -f "$root/bench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "bench: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/bench" && go build -buildvcs=false -o "$build/spectrebench-bench" .)
exec "$build/spectrebench-bench" "$@"
