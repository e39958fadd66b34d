#!/usr/bin/env sh
# Streaming smoke gate (docs/STREAMING.md): generate a query log with the
# streaming generator, solve it three ways — materialized (mc3gen -log →
# mc3solve -in), streamed finish-only, streamed with mid-stream sealing, and
# streamed with mid-stream sealing on GOMAXPROCS seal workers (-parallel -1)
# — and fail unless all four land on the identical cost. Finishes with the
# in-process stream-mem differential, which hard-fails on any cost mismatch
# between the NewInstance and SolveStream arms.
#
# Usage: scripts/stream-smoke.sh [outdir] [queries]   (default: ./stream-smoke 50000)
set -eu

OUT=${1:-stream-smoke}
N=${2:-50000}
PARTS=8
# One partition stretch: the smallest seal window that provably never
# triggers a sealed-property reappearance on a sequential partitioned stream.
WINDOW=$((N / PARTS))
mkdir -p "$OUT"
BIN=$OUT/bin
mkdir -p "$BIN"

echo "== building binaries"
go build -o "$BIN" ./cmd/mc3gen ./cmd/mc3solve ./cmd/mc3bench

echo "== streaming a $N-query log ($PARTS partitions)"
"$BIN/mc3gen" -stream -queries "$N" -partitions "$PARTS" -seed 7 -out "$OUT/q.log"

echo "== arm 1: materialized whole-load solve (mc3gen -log -> mc3solve -in)"
"$BIN/mc3gen" -log "$OUT/q.log" -log-cost 1 -out "$OUT/inst.json"
MAT=$("$BIN/mc3solve" -in "$OUT/inst.json" -quiet)

echo "== arm 2: streamed solve, finish-only sealing"
FIN=$("$BIN/mc3solve" -stream "$OUT/q.log" -cost uniform:1 -quiet)

echo "== arm 3: streamed solve, mid-stream sealing (window $WINDOW)"
WIN=$("$BIN/mc3solve" -stream "$OUT/q.log" -cost uniform:1 -seal-window "$WINDOW" -quiet)

echo "== arm 4: streamed solve, mid-stream sealing (window $WINDOW), parallel seal workers"
PAR=$("$BIN/mc3solve" -stream "$OUT/q.log" -cost uniform:1 -seal-window "$WINDOW" -parallel -1 -quiet)

echo "materialized=$MAT finish-only=$FIN windowed=$WIN windowed-parallel=$PAR"
if [ "$MAT" != "$FIN" ] || [ "$MAT" != "$WIN" ] || [ "$MAT" != "$PAR" ]; then
    echo "COST DIFFERENTIAL FAILED: streamed solves disagree with the materialized solve" >&2
    exit 1
fi

echo "== in-process stream-mem differential (peak-heap watermark + cost gate)"
"$BIN/mc3bench" -quick -exp stream-mem -json >"$OUT/stream-mem.json"

echo "stream smoke OK (artifacts in $OUT/)"
