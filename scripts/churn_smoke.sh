#!/usr/bin/env bash
# churn_smoke.sh — chaos proof for fleet membership: a wire fleet must
# survive node processes being SIGKILLed and restarted mid-run. Two legs,
# all binaries built with -race:
#
#   A. byte-identity under churn — cloud + 2 nodes through a lossy
#      insitu-proxy; two node processes are SIGKILLed mid-round (watching
#      the cloud's round markers) and immediately restarted. The
#      restarted process redials, the cloud rebuilds it from the last
#      round-boundary session blob plus a replay of the in-flight round
#      commands, and the final stdout must diff clean against the
#      undisturbed in-process baseline.
#
#   B. lease expiry at quorum — cloud + 3 nodes with -lease 2s
#      -min-quorum 2; one node is SIGKILLed and left dead. The fleet
#      must keep completing rounds with the survivors, report the dead
#      node DISCONNECTED, and the health plane (insitu-top over
#      -health-out) must show it disconnected and unhealthy.
#
# Scratch dir (CHURN_SMOKE_WORK pins it), binaries and cleanup: see
# lib.sh.
set -euo pipefail
source "$(dirname "$0")/lib.sh"
smoke_setup churn insitu-fleet insitu-node insitu-proxy insitu-top

port=$((21433 + RANDOM % 1000))
pxport=$((port + 1000))

# start_node VAR ID ADDR LOG — one reconnecting agent process; its pid
# lands in VAR and in the cleanup list.
start_node() {
	"$work/insitu-node" -connect "$3" -node-id "$2" -reconnect-window 2m \
		2>>"$work/$4" &
	local pid=$!
	pids+=("$pid")
	printf -v "$1" '%s' "$pid"
}

# wait_for_round N FILE — block until the cloud's stderr announces round
# N starting; the marker prints right before the round runs, so a kill
# fired on it lands mid-round.
wait_for_round() {
	local deadline=$((SECONDS + 180))
	until grep -q "^round $1 " "$2" 2>/dev/null; do
		if ((SECONDS >= deadline)); then
			echo "churn-smoke: timed out waiting for round $1" >&2
			exit 1
		fi
		sleep 0.1
	done
}

flags=(-nodes 2 -bootstrap 24 -rounds 8,8,8,8,8,8 -classes 4 -seed 7
	-fault-rate 0.3 -uplink-fault-rate 0.2)

echo "== leg A baseline: undisturbed in-process run =="
"$work/insitu-fleet" "${flags[@]}" >"$work/base.out" 2>/dev/null

echo "== leg A: SIGKILL + restart two node processes mid-round, via lossy proxy =="
"$work/insitu-fleet" -listen "127.0.0.1:$port" "${flags[@]}" -lease 30s \
	>"$work/churn.out" 2>"$work/cloud-a.err" &
cloud=$!
pids+=("$cloud")
"$work/insitu-proxy" -listen "127.0.0.1:$pxport" -target "127.0.0.1:$port" \
	-seed 3 -drop 0.05 -corrupt 0.05 -max-delay 2ms 2>"$work/proxy.err" &
proxy=$!
pids+=("$proxy")
start_node n0 0 "127.0.0.1:$pxport" nodes-a.err
start_node n1 1 "127.0.0.1:$pxport" nodes-a.err

wait_for_round 2 "$work/cloud-a.err"
echo "-- SIGKILL node 0 mid-round 2, restart"
kill -9 "$n0" 2>/dev/null || true
start_node n0 0 "127.0.0.1:$pxport" nodes-a.err

wait_for_round 4 "$work/cloud-a.err"
echo "-- SIGKILL node 1 mid-round 4, restart"
kill -9 "$n1" 2>/dev/null || true
start_node n1 1 "127.0.0.1:$pxport" nodes-a.err

wait_for_round 6 "$work/cloud-a.err"
wait "$cloud"
wait "$n0" "$n1"
kill -TERM "$proxy" 2>/dev/null || true
wait "$proxy" 2>/dev/null || true
diff "$work/base.out" "$work/churn.out"
echo "leg A: stdout byte-identical through two SIGKILL/restart cycles"

echo "== leg B: node left dead past its lease; rounds continue at quorum =="
bflags=(-nodes 3 -bootstrap 24 -rounds 8,8,8,8,8 -classes 4 -seed 7
	-fault-rate 0.3 -uplink-fault-rate 0.2)
"$work/insitu-fleet" -listen "127.0.0.1:$port" "${bflags[@]}" \
	-lease 2s -min-quorum 2 -health-out "$work/health.json" \
	>"$work/lease.out" 2>"$work/cloud-b.err" &
cloud=$!
pids+=("$cloud")
start_node n0 0 "127.0.0.1:$port" nodes-b.err
start_node n1 1 "127.0.0.1:$port" nodes-b.err
start_node n2 2 "127.0.0.1:$port" nodes-b.err

wait_for_round 2 "$work/cloud-b.err"
echo "-- SIGKILL node 2; it stays dead"
kill -9 "$n2" 2>/dev/null || true

wait "$cloud"
wait "$n0" "$n1"
grep -q 'DISCONNECTED' "$work/lease.out"
"$work/insitu-top" -once -snapshot "$work/health.json" >"$work/top.txt"
cat "$work/top.txt"
grep 'DISCONNECTED' "$work/top.txt" | grep -q 'unhealthy'
grep -q '"disconnected": true' "$work/health.json"
echo "leg B: fleet kept its rounds at quorum; dead node parked, unhealthy, DISCONNECTED"

echo "churn-smoke: both legs passed"
