#!/usr/bin/env bash
# scale_smoke.sh — prove the sharded ingestion path stands up at three
# orders of magnitude more nodes than the wire smokes, under the race
# detector, inside a CI wall-clock budget:
#
#   * one race-built insitu-fleet run at N=1000 across 8 ingestion
#     shards, with the scale valves open (-eval-samples, -max-*-samples,
#     -max-live-nodes) so the run is short but still exercises shard
#     fan-in and LRU state spilling;
#   * the health plane must produce a verdict for every node
#     (insitu-top -require-verdicts) and count zero unhealthy nodes —
#     a straggler-starved shard or wedged hand-off shows up here.
#
# Scratch dir (SCALE_SMOKE_WORK pins it), binaries and cleanup: see
# lib.sh.
set -euo pipefail
source "$(dirname "$0")/lib.sh"
smoke_setup scale insitu-fleet insitu-top

nodes=${SCALE_SMOKE_NODES:-1000}
shards=${SCALE_SMOKE_SHARDS:-8}

echo "== race run: N=$nodes across $shards shards =="
time "$work/insitu-fleet" \
	-nodes "$nodes" -shards "$shards" \
	-bootstrap 8 -rounds 2 -classes 3 -seed 31 \
	-eval-samples 4 -max-round-samples 128 -max-calib-samples 128 \
	-max-live-nodes 128 \
	-health-out "$work/health.json" \
	>"$work/run.out" 2>"$work/run.err"
tail -n 3 "$work/run.out"

echo "== health: every node has a verdict, none unhealthy =="
"$work/insitu-top" -once -snapshot "$work/health.json" -require-verdicts \
	>"$work/top.txt"
tail -n 5 "$work/top.txt"
if ! grep -q '"unhealthy": 0' "$work/health.json"; then
	echo "scale-smoke: unhealthy nodes in the final snapshot:" >&2
	grep '"unhealthy"' "$work/health.json" >&2
	exit 1
fi
grep -q '"shard_queue_depths"' "$work/health.json" ||
	{ echo "scale-smoke: snapshot carries no ingest telemetry" >&2; exit 1; }

echo "scale-smoke: N=$nodes over $shards shards, race-clean, all nodes healthy"
