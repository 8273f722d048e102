#!/usr/bin/env bash
# Builds the benchmark and the wmserved binary from this checkout, then
# runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the checkout.  Everything it writes (build
# cache, binaries, job journals, traces) stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache"
export GOCACHE="$build/gocache" TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOMODCACHE="$build/gomod"
cd "$root/perfbench"
go build -o "$build/perfbench" .
go build -o "$build/wmserved" wmstream/cmd/wmserved
cd "$root"
exec "$build/perfbench" -wmserved "$build/wmserved" -work "$build" "$@"
