#!/usr/bin/env bash
# Perf-regression gate: benchmarks the tier-1 hot paths (snapshot queries,
# wire serialization) on this checkout and on its base commit (the rule is
# scripts/base_commit.sh; BASE overrides it), then fails if
# any gated benchmark regressed: median ns/op up more than THRESHOLD percent
# and every new sample slower than every old one (cmd/benchgate).
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
PATTERN='BenchmarkSnapshotQuery|BenchmarkCompile|BenchmarkSerialize|BenchmarkParse|BenchmarkAggregateCompute|BenchmarkReplicaApplyDelta|BenchmarkWALAppend|BenchmarkWALReplay|BenchmarkCacheMissMerge|BenchmarkTouchAnswer|BenchmarkAnswerMerge|BenchmarkExtractAnswer'
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

. scripts/base_commit.sh
pick_base
if [ -z "$base" ]; then
    echo "perf-gate: no base commit to compare against ($base_rule); skipping"
    exit 0
fi
echo "perf-gate: base $(git rev-parse --short "$base") ($base_rule)"
if tree_is_base; then
    echo "perf-gate: HEAD is the base commit and the tree is clean; nothing to compare"
    exit 0
fi

wt=$(mktemp -d)
trap 'rm -rf "$wt"' EXIT
git archive "$base" | tar -x -C "$wt"

mapfile -t BASE_PKGS < <(pkgs_for "$wt")
mapfile -t HEAD_PKGS < <(pkgs_for .)

# One test binary per package and side, built once.
build_benches() {
    local tree=$1 side=$2 p
    shift 2
    for p in "$@"; do
        (cd "$tree" && go test -c -o "$wt/bin/$side/${p##*/}.test" "$p")
    done
}
mkdir -p "$wt/bin/base" "$wt/bin/head"
build_benches "$wt" base "${BASE_PKGS[@]}"
build_benches . head "${HEAD_PKGS[@]}"

# run_benches <tree> <side> <pkg>...: one sample of every gated benchmark,
# each binary from its own package directory (where its testdata lives).
run_benches() {
    local tree=$1 side=$2 p
    shift 2
    for p in "$@"; do
        (cd "$tree/${p#./}" && "$wt/bin/$side/${p##*/}.test" -test.run '^$' -test.bench "$PATTERN" \
            -test.count 1 -test.benchtime "$BENCHTIME" -test.timeout 10m)
    done
}

# The two sides take turns, one sample at a time, and swap who goes first
# each round: load from the rest of the machine that lasts a few seconds
# then lands on both captures, where back-to-back runs would put it all on
# one side and read it as a regression.
echo "perf-gate: benchmarking base ${base} against HEAD (count=$COUNT benchtime=$BENCHTIME, alternating)"
: >"$OUT/base.txt"
: >"$OUT/head.txt"
for ((i = 0; i < COUNT; i++)); do
    if ((i % 2 == 0)); then
        run_benches "$wt" base "${BASE_PKGS[@]}" >>"$OUT/base.txt"
        run_benches . head "${HEAD_PKGS[@]}" >>"$OUT/head.txt"
    else
        run_benches . head "${HEAD_PKGS[@]}" >>"$OUT/head.txt"
        run_benches "$wt" base "${BASE_PKGS[@]}" >>"$OUT/base.txt"
    fi
done

if command -v benchstat >/dev/null 2>&1; then
    benchstat "$OUT/base.txt" "$OUT/head.txt" | tee "$OUT/benchstat.txt"
else
    echo "perf-gate: benchstat not installed; verdict from cmd/benchgate only"
fi

go run ./cmd/benchgate -old "$OUT/base.txt" -new "$OUT/head.txt" \
    -threshold "$THRESHOLD" -require 'BenchmarkSnapshotQuery,BenchmarkSerialize' \
    | tee "$OUT/verdict.txt"
