#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build writes
# (Go build cache, temporary files, the binary) stays under .bench_build at
# the root of the checkout, so a run touches nothing outside it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -o "$root/.bench_build/regress" .
# One scheduler thread unless the caller asks for more. The sandbox this was
# sized on shows two CPUs but gives them between one and two cores' worth of
# time, changing by the minute; with GOMAXPROCS 2 every handoff between
# goroutines then pays the host's time-slicing and the same binary runs up to
# 35% slower in one minute than in the next. One core's worth is the only
# amount that is always there. See README.md, Repeatability.
export GOMAXPROCS="${GOMAXPROCS:-1}"
exec "$root/.bench_build/regress" "$@"
