#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it, for example from the repository root:
#
#   bash perfbench/run.sh --workload inject --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
