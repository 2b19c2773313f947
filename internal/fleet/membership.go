package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"insitu/internal/wire"
)

// Fleet membership: which process currently serves each node id.
//
// The listener stays open for the whole run and every accepted
// connection handshakes on its own goroutine (a slow or silent dialer
// cannot head-of-line-block the others). Each handshake resolves to a
// node id and that id's persistent remotePeer; the Welcome carries a
// fresh session epoch. A surviving process redialing after a network
// blip presents its current epoch and simply re-attaches; a restarted
// process presents a stale epoch (or none) and is first rebuilt — its
// last round-boundary state blob over MsgStateLoad, then a replay of
// every round command issued since, in order — before attaching, so by
// the time it rejoins the round protocol it is byte-identical to the
// process it replaced. The in-flight round command is part of that
// replay; the request loop's retransmission then collects the answer
// from the agent's rebuilt response cache, and RoundReports come out
// identical to an undisturbed run's.
//
// Leases bound how long a round waits for a silent node: when a node
// sends nothing (heartbeats included) for longer than Config.Lease,
// collect parks it — reported Disconnected, skipped by broadcasts —
// provided the survivors still satisfy Config.MinQuorum. A parked node
// that redials rejoins through the same restore+replay handshake.

// supersededText is the MsgError payload sent to a connection that a
// newer one for the same node id has replaced. Agents treat it as
// fatal (ErrSuperseded) instead of redialing, so two processes cannot
// fight over one slot forever.
const supersededText = "superseded: a newer connection for this node id has attached"

// ErrSuperseded is returned by an agent whose session was taken over
// by a newer connection for the same node id — the one disconnect an
// agent must not retry.
var ErrSuperseded = errors.New("fleet: session superseded by a newer connection")

// Listen builds the fleet's server half and accepts connections on ln
// until every one of cfg.Nodes node ids has completed a first
// handshake, then returns with the accept loop still running: nodes
// that die mid-run can redial and rejoin their session for the
// fleet's whole lifetime. The fleet takes ownership of ln (Close
// closes it). A connection that fails its handshake (bad frame, no
// mutual protocol version) is dropped and the slot stays open for the
// next dial. The returned fleet runs the same Bootstrap / RunRound /
// Checkpoint API as New; Close says Bye to every node.
func Listen(cfg Config, ln net.Listener) (*Fleet, error) {
	f := newServer(cfg)
	f.remote = true
	f.ln = ln
	f.lnDone = make(chan struct{})
	f.joined = make(map[int]bool, cfg.Nodes)
	f.allJoined = make(chan struct{})
	f.peers = make([]peer, cfg.Nodes)
	ready := f.allJoined
	go f.acceptLoop(ln)
	select {
	case <-ready:
		return f, nil
	case <-f.lnDone:
		f.memberMu.Lock()
		err := f.acceptErr
		f.memberMu.Unlock()
		f.Close()
		return nil, fmt.Errorf("fleet: accepting node connections: %w", err)
	}
}

// acceptLoop owns the listener: every conn gets its own handshake
// goroutine. Exits when the listener dies (fleet Close, or an external
// failure — after initial membership the run continues, it just cannot
// take rejoins anymore).
func (f *Fleet) acceptLoop(ln net.Listener) {
	defer close(f.lnDone)
	for {
		conn, err := ln.Accept()
		if err != nil {
			f.memberMu.Lock()
			if f.acceptErr == nil {
				f.acceptErr = err
			}
			f.memberMu.Unlock()
			return
		}
		go f.serveConn(conn)
	}
}

// serveConn handshakes one connection: read the Hello, negotiate,
// resolve the node id, then hand the conn to that id's persistent peer
// for the session (re)build. Any failure just drops the conn — the
// node redials.
func (f *Fleet) serveConn(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(handshakeGrace))
	var h wire.Hello
	for {
		_, t, payload, err := wire.ReadFrame(conn)
		if err != nil {
			if errors.Is(err, wire.ErrCRC) {
				continue // the node retransmits its Hello
			}
			conn.Close()
			return
		}
		if t != wire.MsgHello {
			continue
		}
		if h, err = wire.DecodeHello(payload); err != nil {
			conn.Close()
			return
		}
		break
	}
	proto, ok := wire.Negotiate(h.MinProto, h.MaxProto, wire.ProtoMin, wire.ProtoMax)
	if !ok {
		if frame, err := wire.EncodeFrame(wire.ProtoMax, wire.MsgError,
			wire.EncodeError(fmt.Sprintf("no mutual protocol version (cloud speaks %d..%d)",
				wire.ProtoMin, wire.ProtoMax))); err == nil {
			conn.Write(frame)
		}
		conn.Close()
		return
	}

	// Resolve the slot under the membership lock. A requested in-range
	// id always resolves — that is the rejoin path (the slot's previous
	// process is dead or about to be superseded). Without a usable
	// request, the lowest never-claimed slot is assigned.
	f.memberMu.Lock()
	if f.closed {
		f.memberMu.Unlock()
		conn.Close()
		return
	}
	id := -1
	if h.Node >= 0 && int(h.Node) < f.Cfg.Nodes {
		id = int(h.Node)
	} else {
		for i, pr := range f.peers {
			if pr == nil {
				id = i
				break
			}
		}
	}
	if id < 0 {
		f.memberMu.Unlock()
		if frame, err := wire.EncodeFrame(proto, wire.MsgError,
			wire.EncodeError("all node ids are taken")); err == nil {
			conn.Write(frame)
		}
		conn.Close()
		return
	}
	var p *remotePeer
	if f.peers[id] == nil {
		p = newRemotePeer(f, id)
		f.peers[id] = p
	} else {
		p = f.peers[id].(*remotePeer)
	}
	outage := f.outage[id]
	f.memberMu.Unlock()

	if err := p.adopt(conn, proto, h, f.nodeConfigToWire(outage)); err != nil {
		conn.Close()
		return
	}
	f.noteJoined(id)
}

// noteJoined records a completed first-or-later handshake for the slot
// and unblocks Listen once every slot has joined at least once.
func (f *Fleet) noteJoined(id int) {
	f.memberMu.Lock()
	defer f.memberMu.Unlock()
	if f.joined[id] {
		return
	}
	f.joined[id] = true
	if len(f.joined) == f.Cfg.Nodes && f.allJoined != nil {
		close(f.allJoined)
		f.allJoined = nil
	}
}

// adopt (re)builds this node's session on conn and attaches it. The
// epoch decides the mode: a Hello carrying the current epoch is a
// surviving process redialing after a blip — attach as-is, its state
// and dedup cache are live. Anything else is a (re)started process:
// push the last round-boundary blob (which also resets the agent's
// round-command dedup), replay the round commands issued since in
// order (responses discarded — the retransmitting request loop will
// collect the current one from the agent's rebuilt cache), and only
// then attach. hsMu serializes racing dials for the same id; the last
// one to finish wins the conn.
func (p *remotePeer) adopt(conn net.Conn, proto uint8, h wire.Hello, cfg wire.NodeConfig) error {
	p.hsMu.Lock()
	defer p.hsMu.Unlock()

	epoch, started, blob, replay := p.session()
	resume := started && h.Epoch != 0 && h.Epoch == epoch
	newEpoch := epoch
	if h.Epoch > newEpoch {
		newEpoch = h.Epoch
	}
	newEpoch++

	deadline := time.Now().Add(rejoinGrace)
	conn.SetDeadline(deadline)
	w := wire.Welcome{Proto: proto, Node: uint32(p.nodeID), Epoch: newEpoch, Cfg: cfg}
	welcome, err := wire.EncodeFrame(proto, wire.MsgWelcome, w.Encode())
	if err != nil {
		return err
	}
	if _, err := conn.Write(welcome); err != nil {
		return err
	}
	if !resume {
		if blob != nil {
			tag := p.nextStateTag()
			req, err := wire.EncodeFrame(proto, wire.MsgStateLoad, wire.EncodeStateBlob(tag, blob))
			if err != nil {
				return err
			}
			payload, err := hsExchange(conn, welcome, req, wire.MsgStateLoaded, tag, deadline)
			if err != nil {
				return fmt.Errorf("fleet: restoring node %d session: %w", p.nodeID, err)
			}
			if _, errText, derr := wire.DecodeStateLoaded(payload); derr != nil || errText != "" {
				return fmt.Errorf("fleet: node %d rejected session state: %v %s", p.nodeID, derr, errText)
			}
		}
		for _, cmd := range replay {
			var (
				req  []byte
				want wire.MsgType
			)
			switch cmd.kind {
			case cmdCapture:
				req, err = wire.EncodeFrame(proto, wire.MsgCapture, cmd.capture().Encode())
				want = wire.MsgUpload
			case cmdDeploy:
				req, err = wire.EncodeFrame(proto, wire.MsgDeploy, cmd.deploy().Encode())
				want = wire.MsgDeployResult
			default:
				continue
			}
			if err != nil {
				return err
			}
			if _, err := hsExchange(conn, welcome, req, want, uint32(cmd.round), deadline); err != nil {
				return fmt.Errorf("fleet: replaying round %d %v to node %d: %w",
					cmd.round, want, p.nodeID, err)
			}
		}
	}
	conn.SetDeadline(time.Time{})
	p.attach(conn, proto, newEpoch, welcome)
	return nil
}

// hsExchange is the handshake-time request/response primitive: it owns
// conn exclusively (no reader goroutine yet), retransmits req on a
// doubling timer, answers duplicate Hellos with the Welcome (ours may
// have been lost), and returns the first response of type want whose
// leading u32 matches disc.
func hsExchange(conn net.Conn, welcome, req []byte, want wire.MsgType, disc uint32, deadline time.Time) ([]byte, error) {
	if _, err := conn.Write(req); err != nil {
		return nil, err
	}
	backoff := retransmitBase
	for {
		now := time.Now()
		if now.After(deadline) {
			return nil, fmt.Errorf("rejoin exchange timed out awaiting %v", want)
		}
		rd := now.Add(backoff)
		if rd.After(deadline) {
			rd = deadline
		}
		conn.SetReadDeadline(rd)
		_, t, payload, err := wire.ReadFrame(conn)
		if err != nil {
			if errors.Is(err, wire.ErrCRC) {
				continue
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if _, werr := conn.Write(req); werr != nil {
					return nil, werr
				}
				if backoff < retransmitMax {
					backoff *= 2
				}
				continue
			}
			return nil, err
		}
		switch {
		case t == wire.MsgHello:
			if _, werr := conn.Write(welcome); werr != nil {
				return nil, werr
			}
		case t == want && len(payload) >= 4 && binary.LittleEndian.Uint32(payload[:4]) == disc:
			return payload, nil
		}
	}
}

// parkExpired parks the expected-but-silent nodes whose leases have
// run out — unless doing so would leave the round below MinQuorum, in
// which case nobody is parked and collect keeps waiting for a rejoin.
// Returns the parked ids.
func (f *Fleet) parkExpired(expected map[int]bool, got map[int]roundMsg) []int {
	var expired []*remotePeer
	for id := range expected {
		if _, ok := got[id]; ok {
			continue
		}
		rp, ok := f.peers[id].(*remotePeer)
		if !ok {
			continue
		}
		if rp.leaseExpired(f.Cfg.Lease) {
			expired = append(expired, rp)
		}
	}
	if len(expired) == 0 {
		return nil
	}
	quorum := f.Cfg.MinQuorum
	if quorum < 1 {
		quorum = 1
	}
	if len(expected)-len(expired) < quorum {
		return nil
	}
	ids := make([]int, 0, len(expired))
	for _, rp := range expired {
		rp.park()
		delete(expected, rp.nodeID)
		ids = append(ids, rp.nodeID)
		countParked()
	}
	return ids
}

// saveSessions refreshes each attached node's in-memory round-boundary
// state blob — what a restarted process is handed when it rejoins.
// Called at round boundaries (the peers are quiesced), one goroutine
// per peer since state reads are independent. A node that cannot
// answer within its lease keeps its previous blob plus the replay list
// on top (still reconstructs the same state, just more slowly); with
// leases disabled the save waits, exactly like the round itself would.
func (f *Fleet) saveSessions() {
	if !f.remote {
		return
	}
	var deadline time.Time
	if f.Cfg.Lease > 0 {
		deadline = time.Now().Add(f.Cfg.Lease)
	}
	var wg sync.WaitGroup
	for _, pr := range f.peers {
		rp, ok := pr.(*remotePeer)
		if !ok || rp.isParked() {
			continue
		}
		wg.Add(1)
		go func(rp *remotePeer) {
			defer wg.Done()
			rep := peerState(rp, workerCmd{kind: cmdStateSave, round: f.round, deadline: deadline})
			if rep.err == nil {
				rp.setBlob(rep.data)
			}
		}(rp)
	}
	wg.Wait()
}
