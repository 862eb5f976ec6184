#!/usr/bin/env bash
# Builds the benchmark from the surrounding checkout and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Run it from the
# checkout root: bash lapbench/run.sh --workload sim-exact --seed 1 --seconds 10 --trace 0
#
# Every file the build touches stays inside the checkout: the binary, the
# Go build cache and the toolchain's scratch space all live in .bench_build.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
(
	cd "$root/lapbench"
	HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home" \
		GOCACHE="$build/gocache" GOPATH="$build/home/go" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
		GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off \
		go build -o "$build/lapbench" .
)
exec "$build/lapbench" "$@"
