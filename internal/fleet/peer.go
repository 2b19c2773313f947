package fleet

import "errors"

// errPeerGone reports a peer whose transport died (connection lost or
// already shut down) while a command needed an answer.
var errPeerGone = errors.New("fleet: peer connection lost")

// The peer seam: the Fleet server drives every node through this narrow
// interface, so the round protocol (broadcast → collect → admit →
// retrain → deploy) is identical whether a node lives inside an
// in-process ingestion shard (shardPeer, shard.go) or is an insitu-node
// process across a socket (remotePeer, remote.go). Round responses
// always arrive through Fleet.submit; state commands answer on
// cmd.reply.
type peer interface {
	// id is the node id this peer serves.
	id() int
	// enqueue hands one command to the peer. With block=true it waits
	// for queue space (the deterministic default); with block=false a
	// full queue skips the peer (RoundTimeout straggler semantics) and
	// returns false.
	enqueue(cmd workerCmd, block bool) bool
	// shutdown stops the peer; no further commands may be enqueued.
	shutdown()
}

// peerState round-trips one state command through a peer and waits for
// the answer. Only call between rounds (the peer is idle).
func peerState(p peer, cmd workerCmd) stateReply {
	cmd.reply = make(chan stateReply, 1)
	if !p.enqueue(cmd, true) {
		return stateReply{err: errPeerGone}
	}
	return <-cmd.reply
}
