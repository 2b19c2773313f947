#!/usr/bin/env bash
# wire_smoke.sh — end-to-end proof that the wire deployment is the
# in-process fleet, bit for bit. Four legs, all built with -race:
#
#   1. insitu-fleet            — the in-process baseline stdout
#   2. insitu-fleet -listen    — same flags, 2 insitu-node processes over real
#                                TCP; stdout must diff clean
#   3. ...through insitu-proxy — real dropped/corrupted/delayed frames; CRC,
#                                retransmission and idempotent commands must
#                                absorb every fault with identical stdout
#   4. crash + resume          — the cloud SIGKILLs itself after round 1's
#                                checkpoint (taking the node processes down
#                                with it), then a fresh cloud + fresh nodes
#                                resume from the snapshot; final stdout must
#                                still match the uninterrupted baseline
#
# Simulated link faults (-fault-rate/-uplink-fault-rate) stay on in every
# leg: they are seeded node-side state, so they must replay identically no
# matter which transport carries the rounds.
#
# Scratch dir, binaries and cleanup: see lib.sh.
set -euo pipefail
source "$(dirname "$0")/lib.sh"
smoke_setup wire insitu-fleet insitu-node insitu-proxy

port=$((19433 + RANDOM % 1000))
pxport=$((port + 1000))
flags=(-nodes 2 -bootstrap 24 -rounds 8,8 -classes 4 -seed 7
	-fault-rate 0.3 -uplink-fault-rate 0.2)

echo "== leg 1: in-process baseline =="
"$work/insitu-fleet" "${flags[@]}" >"$work/base.out" 2>/dev/null

# start_nodes ADDR — two agent processes against ADDR; pids land in n0/n1.
# -reconnect-window 0: these legs want the old one-session semantics
# (leg 4 relies on the agents dying with their SIGKILLed cloud — a
# reconnecting node would race the resumed cloud's fresh node set).
# Churn survival is churn_smoke.sh's job.
start_nodes() {
	"$work/insitu-node" -connect "$1" -node-id 0 -reconnect-window 0 2>>"$work/nodes.err" &
	n0=$!
	"$work/insitu-node" -connect "$1" -node-id 1 -reconnect-window 0 2>>"$work/nodes.err" &
	n1=$!
	pids+=("$n0" "$n1")
}

echo "== leg 2: cloud + 2 node processes over TCP =="
"$work/insitu-fleet" -listen "127.0.0.1:$port" "${flags[@]}" \
	>"$work/wire.out" 2>>"$work/cloud.err" &
cloud=$!
pids+=("$cloud")
start_nodes "127.0.0.1:$port"
wait "$cloud"
wait "$n0" "$n1"
diff "$work/base.out" "$work/wire.out"

echo "== leg 3: same, through a lossy proxy (drop 8%, corrupt 8%, delay <=2ms) =="
"$work/insitu-fleet" -listen "127.0.0.1:$port" "${flags[@]}" \
	>"$work/proxy.out" 2>>"$work/cloud.err" &
cloud=$!
pids+=("$cloud")
"$work/insitu-proxy" -listen "127.0.0.1:$pxport" -target "127.0.0.1:$port" \
	-seed 3 -drop 0.08 -corrupt 0.08 -max-delay 2ms 2>>"$work/proxy.err" &
proxy=$!
pids+=("$proxy")
start_nodes "127.0.0.1:$pxport"
wait "$cloud"
wait "$n0" "$n1"
kill -TERM "$proxy" 2>/dev/null || true
wait "$proxy" 2>/dev/null || true
grep 'insitu-proxy:' "$work/proxy.err" || true
diff "$work/base.out" "$work/proxy.out"

echo "== leg 4: SIGKILL the cloud after round 1, resume from the checkpoint =="
"$work/insitu-fleet" -listen "127.0.0.1:$port" "${flags[@]}" \
	-state-dir "$work/state" -ckpt-every 1 -kill-after-round 1 \
	>/dev/null 2>>"$work/cloud.err" &
cloud=$!
pids+=("$cloud")
start_nodes "127.0.0.1:$port"
wait "$cloud" || true # exit 137 is the point
wait "$n0" || true    # the agents die with their cloud
wait "$n1" || true
"$work/insitu-fleet" -listen "127.0.0.1:$port" "${flags[@]}" \
	-state-dir "$work/state" -resume \
	>"$work/resumed.out" 2>>"$work/cloud.err" &
cloud=$!
pids+=("$cloud")
start_nodes "127.0.0.1:$port"
wait "$cloud"
wait "$n0" "$n1"
diff "$work/base.out" "$work/resumed.out"

echo "wire-smoke: all four legs byte-identical"
