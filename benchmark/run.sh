#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given: bash benchmark/run.sh --workload read_hot --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (the Go build cache included) and everything a
# run writes goes under benchmark/out/, so nothing outside the checkout is
# touched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off
cd "$here/.."
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" -out "$out" "$@"
