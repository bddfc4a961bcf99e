#!/usr/bin/env bash
# Judges this checkout against a parent commit with the repository's
# benchmark, by the rule of benchmark/README.md "Comparing two builds": the
# two builds run alternately, one run each at a time, swapping which goes
# first, and benchmark/compare reads the two result directories (a gain needs
# >=10 pairs, >=9/10 of them won and a median gap wider than the parent's
# interquartile range; a regression is a median worse than the metric's bound).
#
# The parent is exported with `git archive` into the artifact directory and
# built there by its own benchmark/run.sh, so both sides run exactly the
# command BENCHMARK.json declares.
#
# BASE names the parent commit (default: merge base with origin/main, else
# HEAD~1). Everything else is the rule's own: ten pairs per workload, the four
# workloads and the 20 s window of BENCHMARK.json, artifacts in bench_compare/.
set -euo pipefail

cd "$(dirname "$0")/.."

pairs=10
workloads="read_hot read_bounded update_durable mixed_fresh_tcp"
seconds=20

base="${BASE:-$(git merge-base origin/main HEAD 2>/dev/null || git rev-parse --verify -q HEAD~1 || true)}"
if [ -z "$base" ]; then
    echo "bench-compare: no parent commit to compare against (set BASE)" >&2
    exit 1
fi

OUT="$(mkdir -p bench_compare && cd bench_compare && pwd)"
rm -rf "$OUT/parent-src" "$OUT/parent" "$OUT/change"
mkdir -p "$OUT/parent-src" "$OUT/parent" "$OUT/change"
git archive "$base" | tar -x -C "$OUT/parent-src"

# run <side> <workload> <seed>: one untraced run, results into $OUT/<side>.
run() {
    local side=$1 tree=.
    if [ "$side" = parent ]; then
        tree="$OUT/parent-src"
    fi
    (cd "$tree" && bash benchmark/run.sh --workload "$2" --seed "$3" \
        --seconds "$seconds" --trace 0 -out "$OUT/$side") >>"$OUT/$side.log" 2>&1
}

echo "bench-compare: parent $(git rev-parse --short "$base") vs this checkout, $pairs pairs x ($workloads), ${seconds}s windows"
for w in $workloads; do
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) = 1 ]; then
            run parent "$w" "$i"
            run change "$w" "$i"
        else
            run change "$w" "$i"
            run parent "$w" "$i"
        fi
        echo "bench-compare: $w pair $i/$pairs done"
    done
done

go run ./benchmark/compare "$OUT/parent" "$OUT/change" | tee "$OUT/compare.txt"
