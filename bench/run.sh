#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources, then runs it with the
# given flags. Run it from the repository root, for example:
#
#   bash bench/run.sh --workload predict-paper --seed 3 --seconds 10 --trace 0
#
# The build and the run keep everything they write under .bench_build/ in
# the current directory: the Go build cache, the binary, cached input
# fixtures and snapshot files. Nothing is downloaded.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
