#!/usr/bin/env bash
# Smoke-tests in-network partial aggregation: runs the aggregates experiment
# in -short mode (sub-second arms) and fails unless the machine report says
# both acceptance checks held — the pushdown arm moved >=10x fewer bytes per
# query than the raw-gather baseline and answered with a >=2x better p50.
set -euo pipefail

"$(dirname "$0")/irisbench_smoke.sh" aggregate-smoke aggregates BENCH_PR8.json

echo "aggregate-smoke: ok (>=10x fewer bytes and >=2x better p50 held)"
