#!/usr/bin/env bash
# Smoke-tests the durable fragment store against a real irisnetd kill -9:
# boot the three-site parking demo with -data-dir on the entry/registry site,
# drive updates through irisload, pose a region query so the entry site
# caches both leaf neighborhoods, kill -9 the daemon, restart it on the same
# data dir, and require the recovery metrics (irisnet_recovery_seconds,
# irisnet_cached_fragments before any new query, irisnet_checkpoints_total)
# plus a byte-equal answer served by the rehydrated site. (Zero lost acked
# updates, byte-identical recovery and warm-beats-cold are Go tests in
# internal/site: TestDurableAckedUpdateSurvivesCrash,
# TestDurableRecoveryMatchesLive, TestDurableWarmCacheRecovered.)
#
# Every daemon is torn down by the EXIT trap, even when a check fails.
set -euo pipefail

cd "$(dirname "$0")/.."

TOPO=deployments/parking-demo/topo.json
ROOT_ADMIN=127.0.0.1:19090
OAK_ADMIN=127.0.0.1:19091
SHA_ADMIN=127.0.0.1:19092
Q="/usRegion[@id='NE']"

DATA=$(mktemp -d)
LOG=$(mktemp)
BIN=$(mktemp)
PIDS=()

cleanup() {
    for pid in ${PIDS[@]+"${PIDS[@]}"}; do
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
    rm -f "$BIN" "$LOG"
    rm -rf "$DATA"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/irisnetd

wait_healthz() {
    local admin=$1 what=$2
    for _ in $(seq 1 100); do
        if curl -fsS "http://$admin/healthz" 2>/dev/null | grep -q '^ok$'; then
            return 0
        fi
        sleep 0.1
    done
    echo "durability-smoke: $what never became healthy" >&2
    cat "$LOG" >&2
    return 1
}

metric() {
    # metric <admin> <series>: prints the numeric value, 0 when absent.
    # Series lines carry a {site="..."} label, so match on the bare name
    # followed by a label block (or end of token).
    curl -fsS "http://$1/metrics" |
        awk -v s="$2" '$1==s || substr($1,1,length(s)+1)==s"{" {v=$2} END{print v+0}'
}

require_positive() {
    local admin=$1 series=$2 when=$3
    local v
    v=$(metric "$admin" "$series")
    if ! awk -v v="$v" 'BEGIN{exit !(v>0)}'; then
        echo "durability-smoke: $series=$v $when, want > 0" >&2
        exit 1
    fi
}

start_root() {
    "$BIN" -topology "$TOPO" -site root-site -registry -caching -admin "$ROOT_ADMIN" \
        -data-dir "$DATA" -checkpoint-interval 200ms >>"$LOG" 2>&1 &
    ROOT_PID=$!
    PIDS+=("$ROOT_PID")
    # Detach from job control so the kill -9 below does not print an
    # asynchronous "Killed" notice mid-script.
    disown "$ROOT_PID"
}

start_root
wait_healthz "$ROOT_ADMIN" "root-site"
"$BIN" -topology "$TOPO" -site oakland -admin "$OAK_ADMIN" >>"$LOG" 2>&1 &
PIDS+=($!)
"$BIN" -topology "$TOPO" -site shadyside -admin "$SHA_ADMIN" >>"$LOG" 2>&1 &
PIDS+=($!)
wait_healthz "$OAK_ADMIN" "oakland"
wait_healthz "$SHA_ADMIN" "shadyside"

# Drive real sensor updates through the deployment, then warm the entry
# site's cache with a region query spanning both leaf neighborhoods.
go run ./cmd/irisload -topology "$TOPO" -rate 50 -dur 1s >/dev/null 2>&1
PRE=$(go run ./cmd/irisquery -topology "$TOPO" "$Q")
if [ -z "$PRE" ]; then
    echo "durability-smoke: pre-kill query returned nothing" >&2
    exit 1
fi
require_positive "$ROOT_ADMIN" irisnet_cached_fragments "before the kill"
require_positive "$ROOT_ADMIN" irisnet_wal_appends_total "before the kill"

# Kill without warning: no checkpoint, no WAL close, no deregistration.
kill -9 "$ROOT_PID"
wait "$ROOT_PID" 2>/dev/null || true

start_root
wait_healthz "$ROOT_ADMIN" "restarted root-site"

# Warm restart: the recovery gauge is set and the cache is populated
# before this shell issues a single post-restart query.
require_positive "$ROOT_ADMIN" irisnet_recovery_seconds "after restart"
require_positive "$ROOT_ADMIN" irisnet_cached_fragments "after restart, before any query"
require_positive "$ROOT_ADMIN" irisnet_checkpoints_total "after restart"

POST=$(go run ./cmd/irisquery -topology "$TOPO" "$Q")
if [ "$PRE" != "$POST" ]; then
    echo "durability-smoke: post-restart answer differs from pre-kill answer" >&2
    diff <(printf '%s\n' "$PRE") <(printf '%s\n' "$POST") >&2 || true
    exit 1
fi

echo "durability-smoke: ok (kill -9 recovery metrics, warm cache, byte-equal answer)"
