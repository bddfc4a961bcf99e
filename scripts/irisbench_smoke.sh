#!/usr/bin/env bash
# irisbench_smoke.sh <gate> <experiment> <report>
#
# Runs one irisbench experiment in -short mode (sub-second arms) and fails
# unless the machine report it writes says every acceptance check held
# ("pass": true). irisbench writes <report> into its working directory, so
# the binary is built from this checkout and run in a scratch directory: the
# tracked full-length <report> at the repository root is never overwritten
# with smoke numbers. The four *_smoke.sh gates call this.
set -euo pipefail

GATE=$1 EXP=$2 REPORT=$3

cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

go build -o "$WORK/irisbench" ./cmd/irisbench

if ! (cd "$WORK" && ./irisbench -exp "$EXP" -short) >"$WORK/log" 2>&1; then
    echo "$GATE: $EXP experiment failed" >&2
    cat "$WORK/log" >&2
    exit 1
fi
cat "$WORK/log"

if ! grep -q '"pass": true' "$WORK/$REPORT"; then
    echo "$GATE: $EXP acceptance failed" >&2
    cat "$WORK/$REPORT" >&2
    exit 1
fi
