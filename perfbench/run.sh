#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it, passing
# every argument through. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-batch --seed 1 --seconds 12 --trace 0
#
# The build cache and the binary stay inside the checkout, under
# .bench_build/ (or $CARGO_TARGET_DIR when set).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
