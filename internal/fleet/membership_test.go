package fleet

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"insitu/internal/netsim"
	"insitu/internal/wire"
)

// The membership suite: a wire fleet must survive node process death,
// restart, and lease expiry. The byte-identity bar is the same as the
// equivalence suite's — a run disturbed by kills and rejoins produces
// RoundReports identical to an undisturbed in-process run, because the
// rejoin handshake rebuilds the dead process from its last
// round-boundary blob plus a replay of the round commands since.

// killPlan schedules one simulated SIGKILL for a node's first
// incarnation: die at phase ("capture"/"deploy" = before executing that
// round command, "deployed" = right after answering a deploy) of round.
// stayDead leaves the process un-restarted for the rest of the run.
type killPlan struct {
	phase    string
	round    int64
	stayDead bool
}

// runChurn is runRemote with process churn: each agent runs under a
// redial loop (a fresh Agent per incarnation — a restarted process has
// no dedup cache and no epoch), and nodes named in plans are killed at
// their planned point once.
func runChurn(t *testing.T, cfg Config, boot int, rounds []int, pxCfg *netsim.ProxyConfig, plans map[int]killPlan) []RoundReport {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	dialAddr := ln.Addr().String()
	if pxCfg != nil {
		pln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("proxy listen: %v", err)
		}
		px := netsim.NewProxy(pln, dialAddr, *pxCfg)
		defer px.Close()
		dialAddr = pln.Addr().String()
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	agentErrs := make([]error, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			killed := false
			for {
				conn, err := net.Dial("tcp", dialAddr)
				if err != nil {
					select {
					case <-done:
						return
					case <-time.After(25 * time.Millisecond):
						continue
					}
				}
				a := NewAgent(id)
				if plan, ok := plans[id]; ok && !killed {
					a.killHook = func(phase string, round int64) bool {
						return phase == plan.phase && round == plan.round
					}
				}
				err = a.Serve(conn)
				conn.Close()
				switch {
				case err == nil:
					return // clean Bye
				case errors.Is(err, errAgentKilled):
					killed = true
					if plans[id].stayDead {
						return
					}
					// "Restart the process": loop around with a fresh Agent.
				default:
					agentErrs[id] = err
					return
				}
			}
		}(i)
	}

	f, err := Listen(cfg, ln)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	reps := []RoundReport{f.Bootstrap(boot)}
	for _, n := range rounds {
		reps = append(reps, f.RunRound(n))
	}
	f.Close()
	close(done)
	wg.Wait()
	for id, err := range agentErrs {
		if err != nil {
			t.Fatalf("agent %d: %v", id, err)
		}
	}
	return reps
}

// A fleet run disturbed by a node-process SIGKILL and restart — at a
// round boundary, mid-round before the capture executed, mid-round
// between capture and deploy, and through a frame-mangling proxy —
// reports byte-identically to an undisturbed in-process run.
func TestRejoinReportsByteIdentical(t *testing.T) {
	cfg := wireTestCfg(3)
	// Generous lease: churn here is kill-and-restart, never expiry. It
	// also turns on session saves at round boundaries and heartbeats.
	cfg.Lease = 30 * time.Second
	want := reportJSON(t, run(cfg, 32, []int{24, 24}))

	legs := []struct {
		name string
		plan killPlan
		px   *netsim.ProxyConfig
	}{
		{name: "kill-at-round-boundary", plan: killPlan{phase: "deployed", round: 1}},
		{name: "kill-mid-round", plan: killPlan{phase: "capture", round: 2}},
		{name: "kill-during-deploy", plan: killPlan{phase: "deploy", round: 2}},
		{name: "rejoin-under-lossy-proxy", plan: killPlan{phase: "capture", round: 1},
			px: &netsim.ProxyConfig{Seed: 11, DropProb: 0.1, CorruptProb: 0.1, MaxDelay: 5 * time.Millisecond}},
	}
	for _, leg := range legs {
		leg := leg
		t.Run(leg.name, func(t *testing.T) {
			if leg.px != nil && testing.Short() {
				t.Skip("proxy retransmission waits are slow")
			}
			got := reportJSON(t, runChurn(t, cfg, 32, []int{24, 24}, leg.px, map[int]killPlan{1: leg.plan}))
			if !bytes.Equal(want, got) {
				t.Fatalf("churned run diverged from undisturbed run:\n%s\n---\n%s", want, got)
			}
		})
	}
}

// A node left dead past its lease is parked: rounds keep completing at
// MinQuorum, the dead node's reports say Disconnected (never TimedOut),
// and the survivors' rows still match the full in-process run for the
// rounds everyone participated in.
func TestLeaseExpiryParksDeadNodeAtQuorum(t *testing.T) {
	t.Parallel()
	cfg := wireTestCfg(3)
	cfg.Lease = time.Second
	cfg.MinQuorum = 2
	dead := 2
	reps := runChurn(t, cfg, 32, []int{16, 16}, nil,
		map[int]killPlan{dead: {phase: "capture", round: 1, stayDead: true}})
	if len(reps) != 3 {
		t.Fatalf("got %d reports, want 3", len(reps))
	}
	for _, rep := range reps[1:] {
		var nr *NodeReport
		for i := range rep.Nodes {
			if rep.Nodes[i].Node == dead {
				nr = &rep.Nodes[i]
			}
		}
		if nr == nil {
			t.Fatalf("round %d: dead node %d missing from report", rep.Round, dead)
		}
		if !nr.Disconnected || nr.TimedOut {
			t.Fatalf("round %d: dead node: Disconnected=%v TimedOut=%v, want true/false",
				rep.Round, nr.Disconnected, nr.TimedOut)
		}
		live := 0
		for _, other := range rep.Nodes {
			if !other.Disconnected {
				live++
			}
		}
		if live != cfg.Nodes-1 {
			t.Fatalf("round %d: %d live nodes, want %d", rep.Round, live, cfg.Nodes-1)
		}
	}
	if reps[0].Nodes[dead].Disconnected {
		t.Fatalf("bootstrap round already disconnected; the kill fires in round 1")
	}
}

// A connection that never says Hello must not block other nodes'
// handshakes: Listen accepts concurrently, so the fleet forms while the
// slow-loris conn is still being waited out.
func TestListenSurvivesSilentConnection(t *testing.T) {
	t.Parallel()
	cfg := testCfg(2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()

	silent, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("silent dial: %v", err)
	}
	defer silent.Close()

	var wg sync.WaitGroup
	agentErrs := make([]error, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				agentErrs[id] = err
				return
			}
			defer conn.Close()
			agentErrs[id] = RunAgent(conn, id)
		}(i)
	}

	start := time.Now()
	f, err := Listen(cfg, ln)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	if elapsed := time.Since(start); elapsed >= handshakeGrace {
		t.Fatalf("Listen took %v: the silent connection head-of-line blocked the handshakes", elapsed)
	}
	f.Bootstrap(16)
	f.Close()
	wg.Wait()
	for id, err := range agentErrs {
		if err != nil {
			t.Fatalf("agent %d: %v", id, err)
		}
	}
}

// A peer that only speaks the previous protocol version — whose node
// state blob still carries the dropped diagnoser word — is refused at
// negotiation with an Error frame, and its slot stays free for a current
// agent.
func TestListenRefusesPreviousProtocol(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	formed := make(chan *Fleet, 1)
	go func() {
		f, _ := Listen(testCfg(1), ln)
		formed <- f
	}()

	old, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer old.Close()
	prev := wire.ProtoMin - 1
	hello := wire.Hello{Node: 0, MinProto: prev, MaxProto: prev}
	frame, err := wire.EncodeFrame(prev, wire.MsgHello, hello.Encode())
	if err != nil {
		t.Fatalf("hello: %v", err)
	}
	if _, err := old.Write(frame); err != nil {
		t.Fatalf("hello: %v", err)
	}
	old.SetReadDeadline(time.Now().Add(handshakeGrace))
	_, typ, payload, err := wire.ReadFrame(old)
	if err != nil || typ != wire.MsgError {
		t.Fatalf("protocol-%d hello answered with %v, %v; want an Error frame", prev, typ, err)
	}
	if text, _ := wire.DecodeError(payload); !strings.Contains(text, "no mutual protocol version") {
		t.Fatalf("refusal reads %q", text)
	}

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	agentErr := make(chan error, 1)
	go func() { agentErr <- RunAgent(conn, 0) }()
	f := <-formed
	if f == nil {
		t.Fatal("Listen failed after refusing the old peer")
	}
	f.Close()
	if err := <-agentErr; err != nil {
		t.Fatalf("agent: %v", err)
	}
}

// Heartbeats alone keep a lease: a conn that sends nothing but
// MsgHeartbeat for three leases never expires (parkExpired parks exactly
// the peers whose leaseExpired holds), whatever the payload — agents
// before the payload was dropped sent the 8-byte session epoch. Once
// the beats stop, the lease runs out.
func TestHeartbeatsKeepLeaseAlive(t *testing.T) {
	const lease = 300 * time.Millisecond
	for name, payload := range map[string][]byte{"empty": nil, "legacy epoch": {7, 0, 0, 0, 0, 0, 0, 0}} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := &remotePeer{inbox: newFrameRing(inboxDepth)}
			cloud, node := net.Pipe()
			defer node.Close()
			p.attach(cloud, wire.ProtoMax, 1, nil)
			beat, err := wire.EncodeFrame(wire.ProtoMax, wire.MsgHeartbeat, payload)
			if err != nil {
				t.Fatal(err)
			}
			for end := time.Now().Add(3 * lease); time.Now().Before(end); {
				if _, err := node.Write(beat); err != nil {
					t.Fatalf("heartbeat: %v", err)
				}
				time.Sleep(lease / 4)
				if p.leaseExpired(lease) || p.isParked() {
					t.Fatal("lease expired while heartbeats flowed")
				}
			}
			for deadline := time.Now().Add(3 * lease); !p.leaseExpired(lease); {
				if time.Now().After(deadline) {
					t.Fatal("lease still fresh after heartbeats stopped")
				}
				time.Sleep(lease / 10)
			}
		})
	}
}

// The inbox ring never drops the frame being pushed — a full ring
// evicts its OLDEST entry — and concurrent pushers cannot lose frames
// to the eviction race the old two-select scheme had.
func TestFrameRingDropsOldestNeverNewest(t *testing.T) {
	t.Parallel()
	r := newFrameRing(4)
	for i := 0; i < 10; i++ {
		r.push(inFrame{t: wire.MsgUpload, payload: []byte{byte(i)}})
	}
	// 10 pushes through capacity 4: frames 6..9 survive, in order.
	for want := 6; want < 10; want++ {
		f, ok := r.pop()
		if !ok {
			t.Fatalf("ring empty at frame %d", want)
		}
		if int(f.payload[0]) != want {
			t.Fatalf("popped frame %d, want %d (drop-oldest violated)", f.payload[0], want)
		}
	}
	if _, ok := r.pop(); ok {
		t.Fatalf("ring should be empty after draining")
	}
}

// Overflow hammer: many producers racing one consumer. Every pop must
// yield a well-formed frame, the newest frame of any single producer
// must never be lost while that producer is still pushing (drop-oldest
// only), and the run must terminate without deadlock.
func TestFrameRingOverflowHammer(t *testing.T) {
	t.Parallel()
	const producers, perProducer = 8, 500
	r := newFrameRing(inboxDepth)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				r.push(inFrame{t: wire.MsgUpload, payload: []byte{byte(p), byte(i), byte(i >> 8)}})
			}
		}(p)
	}
	popped := 0
	doneProducing := make(chan struct{})
	go func() { wg.Wait(); close(doneProducing) }()
	for {
		f, ok := r.pop()
		if ok {
			if len(f.payload) != 3 || f.t != wire.MsgUpload {
				t.Errorf("malformed frame from ring: %+v", f)
				return
			}
			popped++
			continue
		}
		select {
		case <-doneProducing:
			// Drain what's left and stop.
			for {
				if _, ok := r.pop(); !ok {
					if popped == 0 {
						t.Fatalf("hammer popped nothing")
					}
					return
				}
				popped++
			}
		case <-r.ready:
		}
	}
}
