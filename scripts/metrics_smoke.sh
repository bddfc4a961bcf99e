#!/usr/bin/env bash
# Smoke-tests the irisnetd observability endpoint: starts the parking-demo
# root site (hosting the registry) with -admin, waits for /healthz, checks
# that /metrics serves Prometheus text with the irisnet series (including
# the freshness/provenance instruments), that /debug/fragment reports the
# site (and 404s on an unknown ?site=), that /debug/cluster federates the
# topology, and that the pprof CPU profile answers. The background daemon
# is always torn down by the EXIT trap, even when a check fails mid-script.
set -euo pipefail

cd "$(dirname "$0")/.."
TOPO=deployments/parking-demo/topo.json
ADMIN=127.0.0.1:19090
LOG=$(mktemp)
BIN=$(mktemp)
PID=""

cleanup() {
    if [ -n "$PID" ]; then
        kill "$PID" 2>/dev/null || true
        wait "$PID" 2>/dev/null || true
    fi
    rm -f "$BIN" "$LOG"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/irisnetd

"$BIN" -topology "$TOPO" -site root-site -registry -admin "$ADMIN" >"$LOG" 2>&1 &
PID=$!

ok=0
for _ in $(seq 1 50); do
    if curl -fsS "http://$ADMIN/healthz" 2>/dev/null | grep -q '^ok$'; then
        ok=1
        break
    fi
    sleep 0.1
done
if [ "$ok" != 1 ]; then
    echo "metrics-smoke: /healthz never became ready" >&2
    cat "$LOG" >&2
    exit 1
fi

METRICS=$(curl -fsS "http://$ADMIN/metrics")
for series in irisnet_queries_total irisnet_cache_hits_total irisnet_cache_misses_total \
    irisnet_retries_total irisnet_partial_answers_total irisnet_store_nodes \
    irisnet_subquery_rpcs_total irisnet_coalesced_subqueries_total irisnet_subquery_batch_size \
    irisnet_answer_staleness_seconds irisnet_cache_age_seconds \
    irisnet_predicate_margin_seconds irisnet_answer_cache_bytes_total \
    irisnet_answer_owned_bytes_total irisnet_answer_fetched_bytes_total \
    irisnet_aggregate_pushdowns_total irisnet_aggregate_fallbacks_total \
    irisnet_gather_bytes_saved_total \
    irisnet_cache_merge_commits_total irisnet_cache_merged_fragments_total \
    irisnet_qeg_plan_cache_misses_total irisnet_qeg_plan_shapes \
    irisnet_process_heap_live_bytes irisnet_process_gc_cycles_total; do
    if ! printf '%s\n' "$METRICS" | grep -q "^$series"; then
        echo "metrics-smoke: /metrics missing series $series" >&2
        printf '%s\n' "$METRICS" >&2
        exit 1
    fi
done
if ! printf '%s\n' "$METRICS" | grep -q '^# TYPE irisnet_queries_total counter$'; then
    echo "metrics-smoke: /metrics missing TYPE line" >&2
    exit 1
fi

curl -fsS "http://$ADMIN/debug/fragment" | grep -q '"site": "root-site"' || {
    echo "metrics-smoke: /debug/fragment missing root-site" >&2
    exit 1
}
curl -fsS "http://$ADMIN/debug/fragment?site=root-site" | grep -q '"site": "root-site"' || {
    echo "metrics-smoke: /debug/fragment?site=root-site missing root-site" >&2
    exit 1
}
CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADMIN/debug/fragment?site=no-such-site")
if [ "$CODE" != 404 ]; then
    echo "metrics-smoke: /debug/fragment?site=no-such-site returned $CODE, want 404" >&2
    exit 1
fi

curl -fsS "http://$ADMIN/debug/cluster" | grep -q '"site": "root-site"' || {
    echo "metrics-smoke: /debug/cluster missing root-site" >&2
    exit 1
}
curl -fsS "http://$ADMIN/debug/cluster?format=text" | grep -q 'root-site' || {
    echo "metrics-smoke: /debug/cluster?format=text missing root-site" >&2
    exit 1
}

CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADMIN/debug/pprof/profile?seconds=1")
if [ "$CODE" != 200 ]; then
    echo "metrics-smoke: /debug/pprof/profile?seconds=1 returned $CODE, want 200" >&2
    exit 1
fi

echo "metrics-smoke: ok (/healthz, /metrics, /debug/fragment, /debug/cluster, /debug/pprof all answering)"
