#!/usr/bin/env bash
# The benchmark's one command: builds the harness into .bench_build/ at the
# root of the checkout (build cache included, so nothing is written outside
# the checkout) and runs it with the given arguments.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
(cd "$bench" && HOME="$build" GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS=-buildvcs=false \
	go build -o "$build/bench" .)
exec "$build/bench" "$@"
