#!/usr/bin/env bash
# Perf-regression gate: benchmarks the tier-1 hot paths (snapshot queries,
# wire serialization) on this checkout and on its merge base, then fails if
# any gated benchmark's median ns/op regressed more than THRESHOLD percent.
# benchstat, when installed, renders the statistical comparison into the
# artifact directory; the pass/fail verdict comes from cmd/benchgate, which
# needs nothing beyond the Go toolchain, so the gate runs identically in CI
# and in offline checkouts via `make perf-gate`.
#
# Tunables (environment): COUNT (runs per benchmark, default 6), BENCHTIME
# (per run, default 100ms), THRESHOLD (max median regression %, default 15),
# OUT (artifact directory, default bench_gate).
set -euo pipefail

cd "$(dirname "$0")/.."

COUNT="${COUNT:-6}"
BENCHTIME="${BENCHTIME:-100ms}"
THRESHOLD="${THRESHOLD:-15}"
OUT="${OUT:-bench_gate}"
PATTERN='BenchmarkSnapshotQuery|BenchmarkSerialize|BenchmarkParse|BenchmarkAggregateCompute|BenchmarkReplicaApplyDelta|BenchmarkWALAppend|BenchmarkWALReplay|BenchmarkCacheMissMerge|BenchmarkTouchAnswer'
ALL_PKGS=(./internal/site ./internal/xmldb ./internal/qeg ./internal/fragment ./internal/wal)

# pkgs_for <tree>: the subset of ALL_PKGS that exists in that checkout, so
# the gate keeps working while a benchmark's package is newer than the merge
# base (e.g. internal/wal, introduced with the durable store).
pkgs_for() {
    local tree=$1 p out=()
    for p in "${ALL_PKGS[@]}"; do
        if [ -d "$tree/${p#./}" ]; then
            out+=("$p")
        fi
    done
    printf '%s\n' "${out[@]}"
}

mkdir -p "$OUT"

base=$(git merge-base origin/main HEAD 2>/dev/null || git rev-parse --verify -q HEAD~1 || true)
if [ -z "$base" ]; then
    echo "perf-gate: no base commit to compare against; skipping"
    exit 0
fi
head=$(git rev-parse HEAD)
if [ "$base" = "$head" ] && git diff --quiet; then
    echo "perf-gate: HEAD is the base commit and the tree is clean; nothing to compare"
    exit 0
fi

wt=$(mktemp -d)
cleanup() {
    git worktree remove --force "$wt" >/dev/null 2>&1 || true
    rm -rf "$wt"
}
trap cleanup EXIT

git worktree add --detach "$wt" "$base" >/dev/null 2>&1

mapfile -t BASE_PKGS < <(pkgs_for "$wt")
mapfile -t HEAD_PKGS < <(pkgs_for .)

echo "perf-gate: benchmarking base ${base} (count=$COUNT benchtime=$BENCHTIME)"
(cd "$wt" && go test -run '^$' -bench "$PATTERN" -count "$COUNT" -benchtime "$BENCHTIME" "${BASE_PKGS[@]}") >"$OUT/base.txt"
echo "perf-gate: benchmarking HEAD"
go test -run '^$' -bench "$PATTERN" -count "$COUNT" -benchtime "$BENCHTIME" "${HEAD_PKGS[@]}" >"$OUT/head.txt"

if command -v benchstat >/dev/null 2>&1; then
    benchstat "$OUT/base.txt" "$OUT/head.txt" | tee "$OUT/benchstat.txt"
else
    echo "perf-gate: benchstat not installed; verdict from cmd/benchgate only"
fi

go run ./cmd/benchgate -old "$OUT/base.txt" -new "$OUT/head.txt" \
    -threshold "$THRESHOLD" -require 'BenchmarkSnapshotQuery,BenchmarkSerialize' \
    | tee "$OUT/verdict.txt"
