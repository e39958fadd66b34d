#!/usr/bin/env sh
# Cluster smoke gate: genuinely separate OS processes — two mc3serve shards
# and one mc3serve router — replayed against with mc3replay -cluster, which
# hard-differential-checks every batch's cost against a local incremental
# engine and exits non-zero on any disagreement.
#
# Usage: scripts/cluster-smoke.sh [outdir]   (default: ./cluster-smoke)
set -eu

OUT=${1:-cluster-smoke}
mkdir -p "$OUT"
BIN=$OUT/bin
mkdir -p "$BIN"

echo "== building binaries"
go build -o "$BIN" ./cmd/mc3gen ./cmd/mc3serve ./cmd/mc3replay

echo "== generating the multi-session workload bundle"
"$BIN/mc3gen" -dataset synthetic -n 120 -deltas -delta-events 120 \
    -sessions 4 -seed 7 -out "$OUT/bundle.txt"

PIDS=""
cleanup() {
    for p in $PIDS; do kill "$p" 2>/dev/null || true; done
    wait 2>/dev/null || true
}
trap cleanup EXIT INT TERM

echo "== launching 2 shard processes + 1 router process"
"$BIN/mc3serve" -addr 127.0.0.1:19101 -flight 0 >"$OUT/shard1.log" 2>&1 &
PIDS="$PIDS $!"
"$BIN/mc3serve" -addr 127.0.0.1:19102 -flight 0 >"$OUT/shard2.log" 2>&1 &
PIDS="$PIDS $!"
"$BIN/mc3serve" -route 127.0.0.1:19101,127.0.0.1:19102 \
    -addr 127.0.0.1:19100 -probe-interval 200ms >"$OUT/router.log" 2>&1 &
PIDS="$PIDS $!"

echo "== waiting for the router to report ready"
i=0
until curl -fsS http://127.0.0.1:19100/readyz >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "router never became ready" >&2
        cat "$OUT"/*.log >&2 || true
        exit 1
    fi
    sleep 0.2
done

echo "== replaying the bundle through the external router (differential gate)"
"$BIN/mc3replay" -cluster -stream "$OUT/bundle.txt" \
    -router http://127.0.0.1:19100 -window 2 \
    -json -out "$OUT/cluster-replay.json"

echo "== router stats after replay"
curl -fsS http://127.0.0.1:19100/stats | tee "$OUT/router-stats.json"
echo

echo "== cluster smoke clean"
