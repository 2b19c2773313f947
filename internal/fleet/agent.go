package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"insitu/internal/core"
	"insitu/internal/deploy"
	"insitu/internal/netsim"
	"insitu/internal/wire"
)

// The node half of the wire deployment: an Agent is what an
// insitu-node process runs against a cloud's Listen. It reconstructs
// the exact core.Node a shard worker would have built — same Config
// fields, same seed derivations — so the cloud's RoundReports cannot
// tell the transports apart.
//
// The Agent outlives any single connection: its node state, session
// epoch and response cache persist across Serve calls, so a process
// that redials after a network blip presents its epoch and continues
// where it was, answering retransmitted commands from cache. A process
// that actually died is rebuilt by the cloud instead — the rejoin
// handshake pushes the last round-boundary state blob (MsgStateLoad,
// which resets the round-command dedup) and replays the round commands
// issued since, recreating state, dedup and cache bit-for-bit.

// Agent holds one node's identity and state across connections.
type Agent struct {
	wantID int
	node   *core.Node
	// epoch is the session epoch from the last Welcome; sent in every
	// Hello so the cloud can tell a surviving process (epoch matches —
	// just re-attach) from a restarted one (rebuild via state restore).
	epoch uint64
	// last/cache implement the idempotent command dedup: per message
	// kind, the discriminator last executed and the response frame it
	// produced. A retransmitted duplicate is answered from cache
	// without re-executing (re-running capture would advance the
	// node's RNG streams and fork the simulation); anything older is
	// dropped.
	last  map[wire.MsgType]int64
	cache map[wire.MsgType][]byte
	// writeMu serializes the serve loop's responses with the heartbeat
	// goroutine's beacons.
	writeMu sync.Mutex

	// killHook, when set (tests only), simulates a SIGKILL at a precise
	// point in the command stream: consulted with ("capture"|"deploy",
	// round) before executing a round command and ("deployed", round)
	// after answering a deploy. Returning true aborts the session at
	// once, the way a dead process would — no Bye, no flush.
	killHook func(phase string, round int64) bool
}

// errAgentKilled is the sentinel Serve returns when killHook fired.
var errAgentKilled = errors.New("fleet: agent killed by test hook")

// NewAgent prepares a node agent. wantID requests a node id; pass -1
// to let the cloud assign one on the first handshake.
func NewAgent(wantID int) *Agent {
	return &Agent{
		wantID: wantID,
		last: map[wire.MsgType]int64{
			wire.MsgCapture:   -1,
			wire.MsgDeploy:    -1,
			wire.MsgStateSave: -1,
			wire.MsgStateLoad: -1,
		},
		cache: make(map[wire.MsgType][]byte),
	}
}

// RunAgent serves one node session over conn until the cloud says Bye
// (returns nil) or the stream dies (returns the error). wantID
// requests a node id; pass -1 to let the cloud assign one. This is the
// single-session shape; processes that should survive churn use
// ServeLoop.
func RunAgent(conn net.Conn, wantID int) error {
	return NewAgent(wantID).Serve(conn)
}

// Serve runs one session on conn: handshake (carrying the stored
// epoch), then the command loop until Bye (nil), a transport error, or
// ErrSuperseded (a newer connection took this node id — do not
// redial). The agent's state survives the return; a subsequent Serve
// resumes the same node.
func (a *Agent) Serve(conn net.Conn) error {
	w, err := a.handshake(conn)
	if err != nil {
		return err
	}
	if a.node == nil {
		a.node = core.NewNode(nodeConfig(nodeConfigFromWire(w.Cfg), int(w.Node), w.Cfg.Outage))
	} else if a.node.ID() != int(w.Node) {
		return fmt.Errorf("fleet: cloud moved this agent from node %d to %d mid-run", a.node.ID(), int(w.Node))
	}
	a.epoch = w.Epoch
	stop := make(chan struct{})
	defer close(stop)
	if hb := time.Duration(w.Cfg.HeartbeatMs) * time.Millisecond; hb > 0 {
		go a.heartbeatLoop(conn, w.Proto, hb, stop)
	}
	return a.serve(conn, w.Proto)
}

// nodeConfigFromWire rebuilds the fleet Config fields a node consumes.
func nodeConfigFromWire(w wire.NodeConfig) Config {
	return Config{
		Nodes:       1,
		Kind:        core.SystemKind(w.Kind),
		Classes:     int(w.Classes),
		PermClasses: int(w.PermClasses),
		SharedConvs: int(w.SharedConvs),
		Probes:      int(w.Probes),
		Seed:        w.Seed,
		InSituFrac:  w.InSituFrac,
		Severity:    w.Severity,
		Link: netsim.Uplink{
			Name:          w.LinkName,
			BandwidthBps:  w.LinkBandwidthBps,
			EnergyPerByte: w.LinkEnergyPerByte,
		},
		DeployRetries:  int(w.DeployRetries),
		UplinkFaults:   faultSpecFromWire(w.Uplink),
		DownlinkFaults: faultSpecFromWire(w.Downlink),
		EvalSamples:    int(w.EvalSamples),
	}
}

// handshake sends Hello (retransmitting until answered — the first
// frames may cross a lossy proxy) and returns the Welcome.
func (a *Agent) handshake(conn net.Conn) (wire.Welcome, error) {
	want := a.wantID
	if a.node != nil {
		want = a.node.ID() // identity is pinned after the first session
	}
	h := wire.Hello{Node: int32(want), MinProto: wire.ProtoMin, MaxProto: wire.ProtoMax, Epoch: a.epoch}
	hello, err := wire.EncodeFrame(wire.ProtoMax, wire.MsgHello, h.Encode())
	if err != nil {
		return wire.Welcome{}, err
	}
	if _, err := conn.Write(hello); err != nil {
		return wire.Welcome{}, fmt.Errorf("fleet: sending hello: %w", err)
	}
	for {
		conn.SetReadDeadline(time.Now().Add(retransmitBase))
		_, t, payload, err := wire.ReadFrame(conn)
		if err != nil {
			if errors.Is(err, wire.ErrCRC) {
				continue
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				// Hello or Welcome was lost in transit; try again.
				if _, err := conn.Write(hello); err != nil {
					return wire.Welcome{}, fmt.Errorf("fleet: resending hello: %w", err)
				}
				continue
			}
			return wire.Welcome{}, fmt.Errorf("fleet: handshake read: %w", err)
		}
		switch t {
		case wire.MsgWelcome:
			conn.SetReadDeadline(time.Time{})
			w, err := wire.DecodeWelcome(payload)
			if err != nil {
				return wire.Welcome{}, fmt.Errorf("fleet: decoding welcome: %w", err)
			}
			return w, nil
		case wire.MsgError:
			text, _ := wire.DecodeError(payload)
			if strings.HasPrefix(text, "superseded") {
				return wire.Welcome{}, fmt.Errorf("%w: %s", ErrSuperseded, text)
			}
			return wire.Welcome{}, fmt.Errorf("fleet: cloud rejected handshake: %s", text)
		}
	}
}

// write sends one frame, serialized against the heartbeat goroutine.
func (a *Agent) write(conn net.Conn, frame []byte) error {
	a.writeMu.Lock()
	defer a.writeMu.Unlock()
	_, err := conn.Write(frame)
	return err
}

// heartbeatLoop beacons the session epoch while the command loop is
// idle, keeping the cloud's lease fresh between rounds. It stops with
// the session; a write failure just stops beaconing (the serve loop
// will surface the conn error itself).
func (a *Agent) heartbeatLoop(conn net.Conn, proto uint8, every time.Duration, stop chan struct{}) {
	frame, err := wire.EncodeFrame(proto, wire.MsgHeartbeat, wire.EncodeHeartbeat(a.epoch))
	if err != nil {
		return
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			if a.write(conn, frame) != nil {
				return
			}
		}
	}
}

// serve is the node's command loop. Commands are idempotent: the
// discriminator (round number, or state tag for save/load) only ever
// moves forward per message kind; a retransmitted duplicate of the
// current one is answered from the response cache without
// re-executing, and anything older is ignored. A successful
// MsgStateLoad resets the round-command dedup — the restored state
// defines a new timeline and the rejoin replay re-executes against it.
func (a *Agent) serve(conn net.Conn, proto uint8) error {
	n := a.node
	respond := func(req, resp wire.MsgType, disc int64, payload []byte) error {
		frame, err := wire.EncodeFrame(proto, resp, payload)
		if err != nil {
			return err
		}
		a.last[req] = disc
		a.cache[req] = frame
		return a.write(conn, frame)
	}
	for {
		_, t, payload, err := wire.ReadFrame(conn)
		if err != nil {
			if errors.Is(err, wire.ErrCRC) {
				// The cloud's retransmit timer will resend the command.
				continue
			}
			if err == io.EOF {
				// Clean disconnect at a frame boundary — the cloud closed
				// the session (its Bye may have been lost in transit).
				return nil
			}
			return err
		}
		// Dedup gate: stale duplicates are dropped, current ones answered
		// from cache. disc < 0 marks kinds without one (Bye).
		disc := int64(-1)
		switch t {
		case wire.MsgCapture, wire.MsgDeploy, wire.MsgStateSave, wire.MsgStateLoad:
			if len(payload) >= 4 {
				disc = int64(binary.LittleEndian.Uint32(payload[:4]))
			}
		}
		if prev, tracked := a.last[t]; tracked && disc >= 0 {
			if disc < prev {
				continue
			}
			if disc == prev {
				if frame := a.cache[t]; frame != nil {
					if err := a.write(conn, frame); err != nil {
						return err
					}
				}
				continue
			}
		}
		switch t {
		case wire.MsgBye:
			return nil
		case wire.MsgError:
			text, _ := wire.DecodeError(payload)
			if strings.HasPrefix(text, "superseded") {
				return fmt.Errorf("%w: %s", ErrSuperseded, text)
			}
			return fmt.Errorf("fleet: cloud error: %s", text)
		case wire.MsgWelcome:
			// A delayed duplicate of our handshake answer; ignore.
		case wire.MsgCapture:
			if a.killHook != nil && a.killHook("capture", disc) {
				return errAgentKilled
			}
			c, derr := wire.DecodeCapture(payload)
			if derr != nil {
				return fmt.Errorf("fleet: decoding capture: %w", derr)
			}
			up := n.Capture(int(c.N), c.Bootstrap)
			u := wire.Upload{
				Round:                 c.Round,
				Captured:              uint32(up.Captured),
				Uploaded:              uint32(up.Uploaded),
				CalibN:                uint32(up.CalibN),
				UpBytes:               up.UpBytes,
				UplinkJ:               up.UplinkJ,
				UplinkS:               up.UplinkS,
				Failed:                up.Failed,
				QualityUploadFraction: up.Quality.UploadFraction,
				QualityErrorRecall:    up.Quality.ErrorRecall,
				QualityPrecision:      up.Quality.Precision,
				Samples:               up.Samples,
				Calib:                 up.Calib,
			}
			pl, derr := u.Encode()
			if derr != nil {
				return fmt.Errorf("fleet: encoding upload: %w", derr)
			}
			if err := respond(t, wire.MsgUpload, disc, pl); err != nil {
				return err
			}
		case wire.MsgDeploy:
			if a.killHook != nil && a.killHook("deploy", disc) {
				return errAgentKilled
			}
			dp, derr := wire.DecodeDeploy(payload)
			if derr != nil {
				return fmt.Errorf("fleet: decoding deploy: %w", derr)
			}
			bundle, derr := deploy.Decode(bytes.NewReader(dp.Bundle))
			if derr != nil {
				return fmt.Errorf("fleet: decoding bundle: %w", derr)
			}
			d := n.Deploy(bundle)
			r := wire.DeployResult{
				Round:       dp.Round,
				Bytes:       d.Bytes,
				Attempts:    uint32(d.Attempts),
				Retransmits: d.Retransmits,
				Backoff:     d.Backoff,
				Version:     d.Version,
				Failed:      d.Failed,
				NodeVersion: d.Version,
				Accuracy:    d.Accuracy,
			}
			if err := respond(t, wire.MsgDeployResult, disc, r.Encode()); err != nil {
				return err
			}
			if a.killHook != nil && a.killHook("deployed", disc) {
				return errAgentKilled
			}
		case wire.MsgStateSave:
			tag, derr := wire.DecodeStateSave(payload)
			if derr != nil {
				return fmt.Errorf("fleet: decoding state-save: %w", derr)
			}
			data, serr := stateBytes(n)
			if serr != nil {
				return fmt.Errorf("fleet: serializing node state: %w", serr)
			}
			if err := respond(t, wire.MsgStateBlob, disc, wire.EncodeStateBlob(tag, data)); err != nil {
				return err
			}
		case wire.MsgStateLoad:
			tag, blob, derr := wire.DecodeStateBlob(payload)
			if derr != nil {
				return fmt.Errorf("fleet: decoding state-load: %w", derr)
			}
			errText := ""
			if lerr := n.LoadState(bytes.NewReader(blob)); lerr != nil {
				errText = lerr.Error()
			} else {
				// The restored blob rewinds the node to a round boundary;
				// forget the old timeline so the replayed round commands
				// re-execute against the restored state instead of being
				// answered from a cache that no longer matches it.
				a.last[wire.MsgCapture], a.last[wire.MsgDeploy] = -1, -1
				delete(a.cache, wire.MsgCapture)
				delete(a.cache, wire.MsgDeploy)
			}
			if err := respond(t, wire.MsgStateLoaded, disc, wire.EncodeStateLoaded(tag, errText)); err != nil {
				return err
			}
		}
	}
}

// AgentConfig configures ServeLoop, the supervised agent shape
// cmd/insitu-node runs: dial, serve, and on disconnect redial with
// jittered exponential backoff, rejoining the session the cloud kept
// for this node id.
type AgentConfig struct {
	// Addr is the cloud's (or proxy's) TCP address.
	Addr string
	// NodeID requests a node id; -1 lets the cloud assign one.
	NodeID int
	// ReconnectWindow bounds how long the loop keeps retrying after the
	// last live session ended; give up (with the last error) when it
	// runs out. 0 disables reconnection: the first session's end, clean
	// or not, ends the loop. Independently of the window, the initial
	// connection gets a 30s grace — nodes are routinely started before
	// their cloud.
	ReconnectWindow time.Duration
	// DialTimeout bounds one dial attempt; 0 means 5s.
	DialTimeout time.Duration
	// Logf, when set, receives reconnect diagnostics.
	Logf func(format string, args ...any)
}

// ServeLoop runs an Agent under supervision: sessions end, the node
// does not. Returns nil on a clean Bye, ErrSuperseded when a newer
// process took the node id, or the last transport error once the
// reconnect window is exhausted.
func ServeLoop(cfg AgentConfig) error {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	dialTO := cfg.DialTimeout
	if dialTO <= 0 {
		dialTO = 5 * time.Second
	}
	const (
		backoffBase  = 250 * time.Millisecond
		backoffMax   = 5 * time.Second
		startupGrace = 30 * time.Second
	)
	a := NewAgent(cfg.NodeID)
	// Jitter decorrelates a fleet's redial stampede after a cloud or
	// network hiccup. This RNG shapes retry timing only — never the
	// simulation, whose streams are all seeded from Config.Seed.
	rng := rand.New(rand.NewSource(time.Now().UnixNano() + int64(cfg.NodeID)<<20))
	backoff := backoffBase
	lastAlive := time.Now()
	for {
		conn, err := net.DialTimeout("tcp", cfg.Addr, dialTO)
		if err == nil {
			before := a.epoch
			err = a.Serve(conn)
			conn.Close()
			if err == nil {
				return nil // clean Bye
			}
			if errors.Is(err, ErrSuperseded) {
				return err
			}
			if a.epoch != before {
				// This session handshook: the give-up clock and the
				// backoff restart from the disconnect, not from dial time.
				lastAlive = time.Now()
				backoff = backoffBase
			}
		}
		grace := cfg.ReconnectWindow
		if a.epoch == 0 {
			// Never had a session: allow the startup grace even when
			// reconnection is off.
			if grace < startupGrace {
				grace = startupGrace
			}
		} else if cfg.ReconnectWindow <= 0 {
			return err
		}
		if time.Since(lastAlive) > grace {
			return fmt.Errorf("fleet: agent gave up after %v offline: %w", grace, err)
		}
		sleep := backoff/2 + time.Duration(rng.Int63n(int64(backoff)))
		logf("reconnecting in %v: %v", sleep.Round(time.Millisecond), err)
		time.Sleep(sleep)
		if backoff < backoffMax {
			backoff *= 2
		}
	}
}
