package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"insitu/internal/core"
	"insitu/internal/deploy"
	"insitu/internal/diagnosis"
	"insitu/internal/netsim"
	"insitu/internal/wire"
)

// The cloud half of the wire deployment. The fleet's listener stays
// open for the whole run (membership.go): every accepted connection
// handshakes on its own goroutine and is routed to its node id's
// remotePeer, which survives the connection — a node process that
// dies, restarts and redials is handed its last round-boundary state
// blob, replays the round commands issued since, and rejoins the
// round protocol as if nothing had happened. The server cannot tell a
// goroutine from a process, and RoundReports cannot tell a stable
// fleet from a churning one.
//
// Transport faults are the remotePeer's problem, not the protocol's:
// every request is retransmitted on a timer until its response arrives
// (matched by round number or state tag, so a proxy-delayed duplicate
// is ignored), the agent answers duplicates from a response cache
// without re-executing, and a CRC-failed frame is simply skipped —
// the next retransmission carries the same bytes. The *simulated*
// LossyLink faults stay node-side, exactly as in-process, so identical
// seeds produce identical RoundReports no matter how hostile the real
// network was.

// Retransmission pacing for requests awaiting a response. The base is
// tuned for the localhost/LAN links the wire deployment targets; it
// doubles per retry up to the cap, and retries never stop while the
// session lives — delivery is at-least-once, dedup is the receiver's
// job. A reconnect resets the backoff (the fresh conn deserves a
// prompt retry).
const (
	retransmitBase = 500 * time.Millisecond
	retransmitMax  = 10 * time.Second
	// retransmitPoll is the request loop's bookkeeping tick; between
	// retransmissions it notices parking, deadlines and reconnects.
	retransmitPoll = 100 * time.Millisecond
	handshakeGrace = 10 * time.Second
	// rejoinGrace bounds a rejoining node's whole handshake: Welcome,
	// state restore, and the replay of the in-flight round's commands.
	rejoinGrace = 30 * time.Second
)

// nodeConfigToWire derives the config a node process needs — the same
// fields nodeConfig consumes in-process, so both shapes derive
// bit-identical node state.
func (f *Fleet) nodeConfigToWire(outage bool) wire.NodeConfig {
	cfg := f.Cfg
	return wire.NodeConfig{
		Kind:              uint32(cfg.Kind),
		Classes:           uint32(cfg.Classes),
		PermClasses:       uint32(cfg.PermClasses),
		SharedConvs:       uint32(cfg.SharedConvs),
		Probes:            uint32(cfg.Probes),
		Seed:              cfg.Seed,
		InSituFrac:        cfg.InSituFrac,
		LinkName:          cfg.Link.Name,
		LinkBandwidthBps:  cfg.Link.BandwidthBps,
		LinkEnergyPerByte: cfg.Link.EnergyPerByte,
		DeployRetries:     uint32(cfg.DeployRetries),
		Uplink:            faultSpecToWire(cfg.UplinkFaults),
		Downlink:          faultSpecToWire(cfg.DownlinkFaults),
		Outage:            outage,
		HeartbeatMs:       heartbeatMs(cfg.Lease),
		EvalSamples:       uint32(cfg.EvalSamples),
	}
}

// heartbeatMs derives the node's idle heartbeat cadence from the lease:
// a quarter of it, clamped to [100ms, 2s], so several beats fit inside
// one lease even when frames occasionally drop. Lease 0 (leases
// disabled) means no heartbeats.
func heartbeatMs(lease time.Duration) uint32 {
	if lease <= 0 {
		return 0
	}
	hb := lease / 4
	if hb < 100*time.Millisecond {
		hb = 100 * time.Millisecond
	}
	if hb > 2*time.Second {
		hb = 2 * time.Second
	}
	return uint32(hb / time.Millisecond)
}

func faultSpecToWire(c netsim.FaultConfig) wire.FaultSpec {
	s := wire.FaultSpec{Seed: c.Seed, CorruptProb: c.CorruptProb, DropProb: c.DropProb}
	for _, o := range c.Outages {
		s.Outages = append(s.Outages, [2]int64{o.Start, o.End})
	}
	return s
}

func faultSpecFromWire(s wire.FaultSpec) netsim.FaultConfig {
	c := netsim.FaultConfig{Seed: s.Seed, CorruptProb: s.CorruptProb, DropProb: s.DropProb}
	for _, o := range s.Outages {
		c.Outages = append(c.Outages, netsim.Outage{Start: o[0], End: o[1]})
	}
	return c
}

// inFrame is one CRC-clean frame from the node.
type inFrame struct {
	t       wire.MsgType
	payload []byte
}

// inboxDepth bounds how many undelivered node frames a peer buffers.
// Anything beyond it is late duplicates; dropping the oldest is safe
// because every dropped response is recovered by retransmission.
const inboxDepth = 16

// frameRing hands frames from the reader goroutine to the command
// loop: a fixed-capacity drop-oldest ring under one mutex. When the
// ring is full the OLDEST frame makes room for the new one — never the
// new frame itself, which the previous two-select scheme could drop
// when the reader raced the consumer between its "evict one" and
// "insert" steps. ready has capacity 1; a nonblocking send per push
// wakes the single consumer without ever blocking the reader.
type frameRing struct {
	mu    sync.Mutex
	buf   []inFrame
	start int
	n     int
	ready chan struct{}
}

func newFrameRing(capacity int) *frameRing {
	return &frameRing{buf: make([]inFrame, capacity), ready: make(chan struct{}, 1)}
}

func (r *frameRing) push(f inFrame) {
	r.mu.Lock()
	if r.n == len(r.buf) {
		r.start = (r.start + 1) % len(r.buf) // evict the oldest
		r.n--
	}
	r.buf[(r.start+r.n)%len(r.buf)] = f
	r.n++
	r.mu.Unlock()
	select {
	case r.ready <- struct{}{}:
	default:
	}
}

func (r *frameRing) pop() (inFrame, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return inFrame{}, false
	}
	f := r.buf[r.start]
	r.buf[r.start] = inFrame{}
	r.start = (r.start + 1) % len(r.buf)
	r.n--
	return f, true
}

// remotePeer drives one node id over whatever connection currently
// serves it. The peer outlives any single conn: the loop goroutine
// turns workerCmds into request frames and retransmits until the
// matching response arrives, from whichever process answers; a reader
// goroutine per live conn keeps the stream drained. Between the
// fleet's round commands the peer tracks the node's membership state —
// session epoch, lease freshness, the last round-boundary state blob
// and the round commands issued since (the rejoin replay list).
type remotePeer struct {
	nodeID int
	f      *Fleet
	cmds   chan workerCmd
	// quit aborts in-flight requests on shutdown.
	quit  chan struct{}
	inbox *frameRing
	// hsMu serializes handshakes for this node id, so two racing dials
	// cannot interleave their restore/replay sequences.
	hsMu sync.Mutex
	// writeMu serializes frame writes so concurrent writers (loop
	// retransmit vs. reader's Welcome resend) cannot interleave bytes.
	writeMu sync.Mutex

	mu    sync.Mutex
	conn  net.Conn // nil while detached
	proto uint8
	// gen counts attachments; the request loop watches it to notice a
	// reconnect and retransmit promptly on the fresh conn.
	gen uint64
	// epoch is the current session epoch (cloud-authoritative,
	// monotonic). A redialing surviving process presents it unchanged; a
	// restarted process presents an older one (or none) and gets the
	// restore+replay treatment.
	epoch   uint64
	started bool // a first session has attached at some point
	parked  bool // lease expired; out of rounds until rejoin
	// lastSeen is refreshed by every frame on the current conn
	// (heartbeats included), so a wedged-but-silent process still
	// expires its lease while a merely idle one does not.
	lastSeen time.Time
	// welcome is the current session's handshake answer, resent
	// verbatim when the node retransmits its Hello (Welcome was lost).
	welcome []byte
	// stateTag numbers state operations so a delayed duplicate of an
	// old save/load can never be mistaken for a newer one.
	stateTag uint32
	// blob is the node's state at the last saved round boundary; replay
	// is every round command issued since. blob+replay reconstruct the
	// node's exact present state on a fresh process (the agent's dedup
	// reset on restore makes replay idempotent).
	blob   []byte
	replay []workerCmd
	// disconnects/rejoins count session churn for the health plane.
	disconnects, rejoins int
}

func newRemotePeer(f *Fleet, id int) *remotePeer {
	p := &remotePeer{
		nodeID: id,
		f:      f,
		cmds:   make(chan workerCmd, 4),
		quit:   make(chan struct{}),
		inbox:  newFrameRing(inboxDepth),
	}
	go p.loop()
	return p
}

func (p *remotePeer) id() int { return p.nodeID }

func (p *remotePeer) enqueue(cmd workerCmd, block bool) bool {
	if !block {
		select {
		case p.cmds <- cmd:
			return true
		default:
			return false
		}
	}
	p.cmds <- cmd
	return true
}

func (p *remotePeer) shutdown() {
	close(p.quit)
	close(p.cmds)
}

// attach makes conn the node's current connection, superseding any
// previous one (the zombie gets a best-effort Error frame so a
// surviving process knows not to redial). Starts the conn's reader.
func (p *remotePeer) attach(conn net.Conn, proto uint8, epoch uint64, welcome []byte) {
	p.mu.Lock()
	old := p.conn
	p.conn = conn
	p.proto = proto
	p.epoch = epoch
	p.welcome = welcome
	p.gen++
	if p.started && (old == nil || p.parked) {
		p.rejoins++
	}
	p.parked = false
	p.started = true
	p.lastSeen = time.Now()
	p.mu.Unlock()
	if old != nil && old != conn {
		if frame, err := wire.EncodeFrame(proto, wire.MsgError,
			wire.EncodeError(supersededText)); err == nil {
			p.writeMu.Lock()
			old.SetWriteDeadline(time.Now().Add(time.Second))
			old.Write(frame)
			p.writeMu.Unlock()
		}
		old.Close()
	}
	go p.readLoop(conn, welcome)
}

// dropConn detaches conn if it is still current (a reconnect may have
// superseded it already) and closes it either way.
func (p *remotePeer) dropConn(conn net.Conn) {
	p.mu.Lock()
	if p.conn == conn {
		p.conn = nil
		p.disconnects++
	}
	p.mu.Unlock()
	conn.Close()
}

// park takes the node out of the round protocol after its lease
// expired; any conn is dropped (a wedged process's socket may still
// look open). A later rejoin handshake unparks via attach.
func (p *remotePeer) park() {
	p.mu.Lock()
	p.parked = true
	conn := p.conn
	p.conn = nil
	if conn != nil {
		p.disconnects++
	}
	p.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

func (p *remotePeer) isParked() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.parked
}

// leaseExpired reports whether the node has been silent (no frame on
// its current conn, heartbeats included) longer than lease. Parked
// nodes are already out; never-attached slots have no lease yet.
func (p *remotePeer) leaseExpired(lease time.Duration) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.started && !p.parked && time.Since(p.lastSeen) > lease
}

// churn returns the peer's membership counters for the health plane.
func (p *remotePeer) churn() (parked bool, disconnects, rejoins int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.parked, p.disconnects, p.rejoins
}

// connState snapshots (generation, attached) for the request loop.
func (p *remotePeer) connState() (uint64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gen, p.conn != nil
}

func (p *remotePeer) protoNow() uint8 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.proto == 0 {
		return wire.ProtoMax
	}
	return p.proto
}

func (p *remotePeer) nextStateTag() uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stateTag++
	return p.stateTag
}

// noteRoundCmd appends one issued round command to the rejoin replay
// list. Cleared when a fresh round-boundary blob lands (setBlob).
func (p *remotePeer) noteRoundCmd(cmd workerCmd) {
	if cmd.kind != cmdCapture && cmd.kind != cmdDeploy {
		return
	}
	cmd.reply = nil
	p.mu.Lock()
	p.replay = append(p.replay, cmd)
	p.mu.Unlock()
}

// setBlob installs a fresh round-boundary state blob; the replay list
// it subsumes is discarded.
func (p *remotePeer) setBlob(blob []byte) {
	p.mu.Lock()
	p.blob = blob
	p.replay = nil
	p.mu.Unlock()
}

// currentBlob returns the stored boundary blob and whether it is
// current (no round commands issued since) — the checkpoint path for a
// parked node, which cannot answer a StateSave itself.
func (p *remotePeer) currentBlob() ([]byte, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.blob, p.blob != nil && len(p.replay) == 0
}

// session snapshots what a rejoin handshake must reconstruct.
func (p *remotePeer) session() (epoch uint64, started bool, blob []byte, replay []workerCmd) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch, p.started, p.blob, append([]workerCmd(nil), p.replay...)
}

// write sends one frame on the current conn, if any. A write error
// detaches the conn; the node will redial and rejoin.
func (p *remotePeer) write(frame []byte) {
	p.mu.Lock()
	conn := p.conn
	p.mu.Unlock()
	if conn == nil {
		return
	}
	p.writeMu.Lock()
	_, err := conn.Write(frame)
	p.writeMu.Unlock()
	if err != nil {
		p.dropConn(conn)
	}
}

// readLoop drains one conn until it dies or is superseded: CRC
// failures are skipped (the request's retransmit timer re-triggers the
// node), every clean frame refreshes the lease, duplicate Hellos get
// this session's Welcome again, heartbeats carry nothing else, and
// responses land in the inbox.
func (p *remotePeer) readLoop(conn net.Conn, welcome []byte) {
	for {
		_, t, payload, err := wire.ReadFrame(conn)
		if err != nil {
			if errors.Is(err, wire.ErrCRC) {
				p.touch(conn)
				continue
			}
			p.dropConn(conn)
			return
		}
		p.touch(conn)
		switch t {
		case wire.MsgHello:
			p.writeMu.Lock()
			_, werr := conn.Write(welcome)
			p.writeMu.Unlock()
			if werr != nil {
				p.dropConn(conn)
				return
			}
		case wire.MsgHeartbeat:
			// Lease refresh only; nothing to deliver.
		default:
			p.inbox.push(inFrame{t: t, payload: payload})
		}
	}
}

// touch refreshes the lease if conn is still the current one.
func (p *remotePeer) touch(conn net.Conn) {
	p.mu.Lock()
	if p.conn == conn {
		p.lastSeen = time.Now()
	}
	p.mu.Unlock()
}

// loop is the remote analogue of localPeer.run: one command at a time,
// in order. On shutdown it says Bye (best-effort) and closes the conn.
func (p *remotePeer) loop() {
	for cmd := range p.cmds {
		p.exchange(cmd)
	}
	if frame, err := wire.EncodeFrame(p.protoNow(), wire.MsgBye, nil); err == nil {
		p.write(frame)
	}
	p.mu.Lock()
	conn := p.conn
	p.conn = nil
	p.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// exchange performs one request/response round trip and delivers the
// result where the protocol expects it: Fleet.submit for round
// commands, cmd.reply for state commands. A request that cannot
// complete (node parked, command deadline passed, fleet shutting down)
// yields no round message — the lease/quorum machinery or
// Config.RoundTimeout accounts for the node instead.
func (p *remotePeer) exchange(cmd workerCmd) {
	var (
		req   []byte
		err   error
		want  wire.MsgType
		disc  uint32 // response discriminator: round or state tag
		proto = p.protoNow()
	)
	switch cmd.kind {
	case cmdCapture:
		req, err = wire.EncodeFrame(proto, wire.MsgCapture, cmd.capture().Encode())
		want, disc = wire.MsgUpload, uint32(cmd.round)
	case cmdDeploy:
		req, err = wire.EncodeFrame(proto, wire.MsgDeploy, cmd.deploy().Encode())
		want, disc = wire.MsgDeployResult, uint32(cmd.round)
	case cmdStateSave:
		tag := p.nextStateTag()
		req, err = wire.EncodeFrame(proto, wire.MsgStateSave, wire.EncodeStateSave(tag))
		want, disc = wire.MsgStateBlob, tag
	case cmdStateLoad:
		tag := p.nextStateTag()
		req, err = wire.EncodeFrame(proto, wire.MsgStateLoad, wire.EncodeStateBlob(tag, cmd.stateIn))
		want, disc = wire.MsgStateLoaded, tag
	default:
		return
	}
	if err != nil {
		p.failState(cmd, fmt.Errorf("fleet: encoding %v request: %w", want, err))
		return
	}
	payload, ok := p.request(req, want, disc, cmd.deadline)
	if !ok {
		p.failState(cmd, errPeerGone)
		return
	}
	switch cmd.kind {
	case cmdCapture:
		u, derr := wire.DecodeUpload(payload)
		if derr != nil {
			p.dropCurrent()
			return
		}
		p.f.submit(roundMsg{
			node: p.nodeID, round: cmd.round, kind: cmdCapture,
			up: core.Upload{
				Captured: int(u.Captured),
				Uploaded: int(u.Uploaded),
				CalibN:   int(u.CalibN),
				UpBytes:  u.UpBytes,
				UplinkJ:  u.UplinkJ,
				UplinkS:  u.UplinkS,
				Failed:   u.Failed,
				Samples:  u.Samples,
				Calib:    u.Calib,
				Quality: diagnosis.Quality{
					UploadFraction: u.QualityUploadFraction,
					ErrorRecall:    u.QualityErrorRecall,
					Precision:      u.QualityPrecision,
				},
			},
		})
	case cmdDeploy:
		r, derr := wire.DecodeDeployResult(payload)
		if derr != nil {
			p.dropCurrent()
			return
		}
		p.f.submit(roundMsg{
			node: p.nodeID, round: cmd.round, kind: cmdDeploy,
			dep: core.Deployed{
				Result: deploy.Result{
					Bytes:       r.Bytes,
					Attempts:    int(r.Attempts),
					Retransmits: r.Retransmits,
					Backoff:     r.Backoff,
					Version:     r.NodeVersion,
					Failed:      r.Failed,
				},
				Accuracy: r.Accuracy,
			},
		})
	case cmdStateSave:
		_, data, derr := wire.DecodeStateBlob(payload)
		cmd.reply <- stateReply{data: data, err: derr}
	case cmdStateLoad:
		_, errText, derr := wire.DecodeStateLoaded(payload)
		if derr == nil && errText != "" {
			if containsMismatch(errText) {
				derr = fmt.Errorf("%w (node %d: %s)", ErrConfigMismatch, p.nodeID, errText)
			} else {
				derr = fmt.Errorf("fleet: node %d restore: %s", p.nodeID, errText)
			}
		}
		cmd.reply <- stateReply{err: derr}
	}
}

// dropCurrent detaches whatever conn is current — the response path's
// reaction to a CRC-clean but undecodable frame (protocol corruption);
// the node can redial and rejoin.
func (p *remotePeer) dropCurrent() {
	p.mu.Lock()
	conn := p.conn
	p.mu.Unlock()
	if conn != nil {
		p.dropConn(conn)
	}
}

// containsMismatch recovers the ErrConfigMismatch identity from a
// restore error that crossed the wire as text.
func containsMismatch(text string) bool {
	want := ErrConfigMismatch.Error()
	for i := 0; i+len(want) <= len(text); i++ {
		if text[i:i+len(want)] == want {
			return true
		}
	}
	return false
}

// failState answers a state command that cannot complete; round
// commands fail silently (the round accounts for them).
func (p *remotePeer) failState(cmd workerCmd, err error) {
	if cmd.reply != nil {
		cmd.reply <- stateReply{err: err}
	}
}

// request writes req and waits for a response of type want whose
// leading u32 equals disc — every response message (Upload,
// DeployResult, StateBlob, StateLoaded) starts with its round or tag,
// so stale duplicates are filtered without decoding. The request is
// retransmitted on a doubling timer for as long as a conn is attached;
// a reconnect (attach generation change) retransmits immediately with
// a reset backoff, because the rejoined process answers replayed
// commands from its rebuilt response cache. The wait aborts when the
// node is parked, the command's deadline passes, or the fleet shuts
// down.
func (p *remotePeer) request(req []byte, want wire.MsgType, disc uint32, deadline time.Time) ([]byte, bool) {
	gen, connected := p.connState()
	if connected {
		p.write(req)
	}
	backoff := retransmitBase
	next := time.Now().Add(backoff)
	tick := time.NewTicker(retransmitPoll)
	defer tick.Stop()
	for {
		select {
		case <-p.quit:
			return nil, false
		case <-p.inbox.ready:
			for {
				in, ok := p.inbox.pop()
				if !ok {
					break
				}
				if in.t != want || len(in.payload) < 4 {
					continue
				}
				if binary.LittleEndian.Uint32(in.payload[:4]) != disc {
					continue
				}
				return in.payload, true
			}
		case now := <-tick.C:
			if p.isParked() {
				return nil, false
			}
			if !deadline.IsZero() && now.After(deadline) {
				return nil, false
			}
			g, up := p.connState()
			if g != gen {
				gen = g
				if up {
					backoff = retransmitBase
					next = now.Add(backoff)
					p.write(req)
				}
				continue
			}
			if up && now.After(next) {
				p.write(req)
				if backoff < retransmitMax {
					backoff *= 2
				}
				next = now.Add(backoff)
			}
		}
	}
}
