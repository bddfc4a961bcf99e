#!/usr/bin/env bash
# Smoke-tests bounded query-driven caching: runs the cache-pressure
# experiment in -short mode (sub-second arms) and fails unless the machine
# report says both acceptance checks held — cache bytes never exceeded the
# budget by more than one local-information unit, and the hit rate degraded
# gracefully as the budget shrank.
set -euo pipefail

"$(dirname "$0")/irisbench_smoke.sh" cache-smoke cache-pressure BENCH_PR5.json

echo "cache-smoke: ok (bounded + graceful degradation held)"
