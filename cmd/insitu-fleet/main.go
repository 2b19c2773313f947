// Command insitu-fleet runs the In-situ AI closed loop: one Cloud
// server servicing N in-situ nodes, each with its own dataset shard and
// faulty links. -nodes 1 is a single deployment through its
// incremental-update lifetime (the closed loop behind Table II); every
// flag below applies to it:
//
//	insitu-fleet -nodes 16 -bootstrap 64 -rounds 48,48
//	insitu-fleet -nodes 1 -variant d -bootstrap 100 -rounds 200,400,800
//
// Per round, every node captures and diagnoses its shard, uploads the
// unrecognized slice, the server aggregates the fleet's uploads under an
// admission cap (-max-round-samples), retrains ONCE, recalibrates on the
// pooled calibration samples and fans the versioned bundle out over each
// node's downlink with retry/rollback.
//
// Fault injection: -fault-rate / -outage shape every node's downlink
// (per-node seeds), -uplink-fault-rate loses upload batches in transit,
// and -outage-nodes 2,5 puts whole nodes into permanent blackout — the
// rest of the fleet must keep converging without them.
//
// Durability: -state-dir DIR checkpoints the whole fleet (server,
// replay pool, every node) after every -ckpt-every rounds; -resume
// continues byte-identically. -kill-after-round N SIGKILLs the process
// right after round N checkpoints — the crash used by `make crash-smoke`.
//
// Health plane: every run tracks per-node verdicts (windowed failure
// rates, admission-latency percentiles, accuracy drift vs the
// deploy-time baseline). With -pprof-addr set, /healthz and /fleetz
// serve them live (insitu-top renders /fleetz); -health-out FILE writes
// the final fleet status JSON for insitu-top -once. -drift-drop tunes
// the drift monitor (0 disables it — the EXPERIMENTS ablation knob) and
// -admit-p99-slo adds a latency SLO.
//
// Wire deployment: with -listen ADDR the same round loop is the
// standalone Cloud server, and its N nodes are real insitu-node
// processes on the far side of TCP connections speaking the
// internal/wire protocol:
//
//	insitu-fleet -listen 127.0.0.1:9433 -nodes 2 -rounds 24 &
//	insitu-node -connect 127.0.0.1:9433 -node-id 0 &
//	insitu-node -connect 127.0.0.1:9433 -node-id 1 &
//
// The server blocks until all -nodes agents have handshaken, then runs
// the schedule exactly as it would in process: same flags, same
// checkpoint format (-state-dir / -resume restore node state over the
// wire), same health plane, and byte-identical stdout for the same
// seeds — `make wire-smoke` diffs the two. Transport faults (drops,
// corruption, delays — e.g. from insitu-proxy) are absorbed by CRC
// framing, retransmission and idempotent commands; the *simulated*
// LossyLink faults stay node-side so the reports match the in-process
// run bit for bit.
package main

import (
	"flag"
	"os"

	"insitu/internal/fleetcli"
)

func main() {
	var o fleetcli.Options
	o.AddFlags(flag.CommandLine)
	flag.Parse()
	os.Exit(o.Run())
}
