#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the Go toolchain writes (build cache, module
# cache, temporary files, telemetry) is kept under .bench_build/ so a run
# touches nothing outside the checkout. Run from the repository root:
#
#   bash bench/run.sh                                    # all workloads, untraced then traced
#   bash bench/run.sh --workload churn10k --seed 7 --seconds 15 --trace 0
#   bash bench/run.sh -selfcheck
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

# The benchmark is its own module next to the code it measures; without
# the repository around it there is nothing to build, and this fails.
(cd "$root/bench" && go build -o "$build/epochbench" .)
exec "$build/epochbench" "$@"
