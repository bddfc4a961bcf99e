#!/usr/bin/env bash
# Smoke-tests owner-push replication with read scale-out: runs the
# replication experiment in -short mode (sub-second arms) and fails unless
# the machine report says all three acceptance checks held — >=2.5x
# aggregate QPS with 3 replicas vs the single owner under the Zipf
# hot-spot, strict/tolerant byte-identity against an owner-only
# deployment, and a clean mid-load failover (zero lost acked updates,
# zero backwards-in-time answers).
set -euo pipefail

"$(dirname "$0")/irisbench_smoke.sh" replication-smoke replication BENCH_PR9.json

echo "replication-smoke: ok (>=2.5x QPS scale-out, byte-identity, and clean failover held)"
