#!/usr/bin/env bash
# Builds the fragbench binary from this checkout's sources and runs it
# with the given arguments. Run from the root of a checkout:
#
#   bash fragbench/run.sh --workload lj-waterbox --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, traces and result records stay in
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
if [[ ! -f go.mod || ! -f fragbench/go.mod ]]; then
	echo "fragbench: run from the root of a fragmd checkout" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out = /* ]] || out=$PWD/$out
mkdir -p "$out"
export GOCACHE=$out/gocache GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
go -C fragbench build -o "$out/fragbench" .
exec "$out/fragbench" --out "$out" "$@"
