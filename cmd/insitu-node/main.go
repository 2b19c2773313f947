// Command insitu-node is one in-situ node of a wire-protocol fleet: it
// dials the Cloud server (insitu-fleet -listen) and runs the node half
// of the closed loop — capture, diagnose, upload, then deliver, apply,
// evaluate — for every command the server sends. The server pushes the
// node's whole configuration in the Welcome handshake and the condition
// severity with every capture, so the node takes no simulation flags:
//
//	insitu-node -connect 127.0.0.1:9433 -node-id 0
//
// The agent survives the wire: when the connection dies it redials with
// jittered backoff for up to -reconnect-window and resumes the session
// the cloud kept for its node id.
//
// To simulate one deployment in a single process, run a one-node fleet:
// insitu-fleet -nodes 1 takes the variant, schedule, fault, durability
// and observability flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"insitu/internal/fleet"
)

func main() {
	connect := flag.String("connect", "", "cloud address to serve as a wire-protocol fleet node (required)")
	nodeID := flag.Int("node-id", -1, "requested fleet node id (-1 = cloud assigns)")
	reconnectWindow := flag.Duration("reconnect-window", time.Minute,
		"keep redialing this long after losing the cloud before giving up (0 = exit with the first session)")
	flag.Parse()
	if *connect == "" {
		fmt.Fprintln(os.Stderr, "insitu-node: -connect is required (for a single-process simulation run insitu-fleet -nodes 1)")
		os.Exit(2)
	}

	// Supervised: dial (retrying while the cloud comes up), serve, and on
	// disconnect redial with jittered backoff to rejoin the session the
	// cloud kept for this node id — until a clean Bye, a superseding
	// process, or the reconnect window runs out.
	err := fleet.ServeLoop(fleet.AgentConfig{
		Addr:            *connect,
		NodeID:          *nodeID,
		ReconnectWindow: *reconnectWindow,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "insitu-node: "+format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "insitu-node:", err)
		os.Exit(1)
	}
}
