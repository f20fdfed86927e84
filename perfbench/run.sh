#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags,
# e.g. --workload read-4k --seed 1 --seconds 40 --trace 0.
# Run from the root of the repository. Everything the build and the
# run write stays under .bench_build/ in that directory.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --dir "$out" "$@"
