package fleet

import (
	"bytes"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"insitu/internal/core"
	"insitu/internal/netsim"
	"insitu/internal/wire"
)

// The wire-vs-in-process equivalence suite: the same Config and seeds
// must produce field-for-field identical RoundReports whether the
// nodes are goroutines (New) or processes-worth of agents on the far
// side of a TCP socket (Listen/RunAgent) — even when that socket runs
// through a proxy that drops and corrupts real frames. The simulated
// LossyLink faults live node-side in both shapes, so the reports
// encode the same simulated world; the transport's job is to not leak
// into it.

// listenRemote builds a Listen'd fleet served by cfg.Nodes RunAgent
// goroutines over real TCP, optionally through a lossy proxy. finish
// closes the fleet and fails the test if any agent did not end cleanly.
func listenRemote(t *testing.T, cfg Config, pxCfg *netsim.ProxyConfig) (f *Fleet, finish func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	dialAddr := ln.Addr().String()
	var px *netsim.Proxy
	if pxCfg != nil {
		pln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("proxy listen: %v", err)
		}
		px = netsim.NewProxy(pln, dialAddr, *pxCfg)
		dialAddr = pln.Addr().String()
	}

	var wg sync.WaitGroup
	agentErrs := make([]error, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", dialAddr)
			if err != nil {
				agentErrs[id] = err
				return
			}
			defer conn.Close()
			agentErrs[id] = RunAgent(conn, id)
		}(i)
	}
	closeAll := func() {
		if px != nil {
			px.Close()
		}
		ln.Close()
	}
	f, err = Listen(cfg, ln)
	if err != nil {
		closeAll()
		t.Fatalf("Listen: %v", err)
	}
	return f, func() {
		t.Helper()
		f.Close()
		wg.Wait()
		closeAll()
		for id, err := range agentErrs {
			if err != nil {
				t.Fatalf("agent %d: %v", id, err)
			}
		}
	}
}

// runRemote mirrors the run() helper over real TCP (see listenRemote).
// restore, when non-nil, is loaded before any round runs.
func runRemote(t *testing.T, cfg Config, boot int, rounds []int, pxCfg *netsim.ProxyConfig, restore []byte) []RoundReport {
	t.Helper()
	f, finish := listenRemote(t, cfg, pxCfg)
	if restore != nil {
		if err := f.Restore(bytes.NewReader(restore)); err != nil {
			finish()
			t.Fatalf("Restore over the wire: %v", err)
		}
	}
	var reps []RoundReport
	if restore == nil {
		reps = append(reps, f.Bootstrap(boot))
	}
	for _, n := range rounds {
		reps = append(reps, f.RunRound(n))
	}
	finish()
	return reps
}

// wireTestCfg adds the simulated link faults so the equivalence runs
// exercise the full node-side fault model, not just the happy path.
func wireTestCfg(nodes int) Config {
	cfg := testCfg(nodes)
	cfg.UplinkFaults = netsim.FaultConfig{DropProb: 0.2}
	cfg.DownlinkFaults = netsim.FaultConfig{CorruptProb: 0.3}
	return cfg
}

func TestWireFleetMatchesInProcess(t *testing.T) {
	t.Parallel()
	cfg := wireTestCfg(3)
	local := reportJSON(t, run(cfg, 32, []int{24}))
	remote := reportJSON(t, runRemote(t, cfg, 32, []int{24}, nil, nil))
	if !bytes.Equal(local, remote) {
		t.Fatalf("TCP fleet diverged from in-process fleet:\n%s\n---\n%s", local, remote)
	}
}

func TestWireFleetThroughLossyProxyStillIdentical(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("proxy retransmission waits are slow")
	}
	cfg := wireTestCfg(3)
	local := reportJSON(t, run(cfg, 32, []int{24}))
	px := &netsim.ProxyConfig{Seed: 7, DropProb: 0.12, CorruptProb: 0.12, MaxDelay: 5 * time.Millisecond}
	remote := reportJSON(t, runRemote(t, cfg, 32, []int{24}, px, nil))
	if !bytes.Equal(local, remote) {
		t.Fatalf("lossy-proxy fleet diverged from in-process fleet:\n%s\n---\n%s", local, remote)
	}
}

// A checkpoint taken by an in-process fleet restores into a wire fleet
// (state travels over MsgStateLoad) and the combined run's reports —
// and the re-saved checkpoint bytes — match an uninterrupted local run
// exactly. This is the crash-resume story for the standalone cloud: the
// driver restarts the deployment from the latest snapshot and nothing
// downstream can tell.
func TestWireFleetResumesLocalCheckpointByteIdentically(t *testing.T) {
	t.Parallel()
	cfg := wireTestCfg(3)
	full := run(cfg, 32, []int{24, 24})

	// Interrupted local run: bootstrap + one round, checkpoint, "crash".
	f1 := New(cfg)
	interrupted := []RoundReport{f1.Bootstrap(32), f1.RunRound(24)}
	var snap bytes.Buffer
	if err := f1.Checkpoint(&snap); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	f1.Close()

	// Finish the run over TCP, restored from the local checkpoint.
	finished := runRemote(t, cfg, 0, []int{24}, nil, snap.Bytes())
	interrupted = append(interrupted, finished...)

	a := reportJSON(t, full)
	b := reportJSON(t, interrupted)
	if !bytes.Equal(a, b) {
		t.Fatalf("resumed-over-wire reports diverged from uninterrupted run:\n%s\n---\n%s", a, b)
	}
}

// Restoring into a wire fleet and immediately checkpointing again must
// reproduce the checkpoint stream byte-for-byte: node state framed as
// blobs is transport-independent.
func TestWireFleetCheckpointRoundTripsAcrossTransports(t *testing.T) {
	t.Parallel()
	cfg := wireTestCfg(2)
	f1 := New(cfg)
	f1.Bootstrap(32)
	var local bytes.Buffer
	if err := f1.Checkpoint(&local); err != nil {
		t.Fatalf("local Checkpoint: %v", err)
	}
	f1.Close()

	f2, finish := listenRemote(t, cfg, nil)
	if err := f2.Restore(bytes.NewReader(local.Bytes())); err != nil {
		finish()
		t.Fatalf("Restore: %v", err)
	}
	var remote bytes.Buffer
	if err := f2.Checkpoint(&remote); err != nil {
		finish()
		t.Fatalf("remote Checkpoint: %v", err)
	}
	finish()
	if !bytes.Equal(local.Bytes(), remote.Bytes()) {
		t.Fatalf("checkpoint streams differ across transports (local %d bytes, remote %d bytes)",
			local.Len(), remote.Len())
	}
}

// driftRounds runs the rounds of a drift schedule from the fleet's
// current position: sevs[i] is set before round i, NaN keeps the
// severity the fleet already has.
func driftRounds(f *Fleet, sevs []float64) []RoundReport {
	var reps []RoundReport
	for _, sev := range sevs {
		if !math.IsNaN(sev) {
			f.SetSeverity(sev)
		}
		reps = append(reps, f.RunRound(16))
	}
	return reps
}

// SetSeverity moves the environment every node renders under, and the
// move is part of the run's identity: the in-process and the wire fleet
// produce byte-identical reports under the same drift schedule, and a
// checkpoint taken between two severity changes resumes at the severity
// it was taken under, not the configured one.
func TestFleetSetSeverity(t *testing.T) {
	t.Parallel()
	cfg := wireTestCfg(2)
	sevs := []float64{0.2, math.NaN(), 0.95}

	f := New(cfg)
	local := append([]RoundReport{f.Bootstrap(24)}, driftRounds(f, sevs)...)
	f.Close()

	// Control: the configured severity alone gives a different round 1,
	// so the comparisons below cannot pass vacuously.
	plain := run(cfg, 24, []int{16})
	if bytes.Equal(reportJSON(t, plain[1:]), reportJSON(t, local[1:2])) {
		t.Fatal("SetSeverity(0.2) left round 1 unchanged")
	}

	rf, finish := listenRemote(t, cfg, nil)
	remote := append([]RoundReport{rf.Bootstrap(24)}, driftRounds(rf, sevs)...)
	finish()
	if a, b := reportJSON(t, local), reportJSON(t, remote); !bytes.Equal(a, b) {
		t.Fatalf("wire fleet diverged under a drift schedule:\n%s\n---\n%s", a, b)
	}

	// Checkpoint after round 1 (severity 0.2), resume, and run round 2
	// without touching the severity: it must still be 0.2.
	f1 := New(cfg)
	resumed := append([]RoundReport{f1.Bootstrap(24)}, driftRounds(f1, sevs[:1])...)
	var snap bytes.Buffer
	if err := f1.Checkpoint(&snap); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	f1.Close()
	f2, err := Resume(cfg, bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	resumed = append(resumed, driftRounds(f2, sevs[1:])...)
	f2.Close()
	if a, b := reportJSON(t, local), reportJSON(t, resumed); !bytes.Equal(a, b) {
		t.Fatalf("resumed drift run diverged:\n%s\n---\n%s", a, b)
	}
}

// A node that rejoins after its round's capture went out gets the
// deploy alone, so the deploy command must carry the round's severity
// itself: an agent grades the delivered model under the severity on the
// Deploy frame, exactly as an in-process node the shard worker set up.
func TestAgentDeployGradesUnderCommandSeverity(t *testing.T) {
	t.Parallel()
	const sev = 0.9
	cfg := testCfg(1)
	f := New(cfg)
	f.Bootstrap(24)
	bundle, err := f.cloud.Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	encoded, err := bundle.EncodeBytes()
	if err != nil {
		t.Fatalf("EncodeBytes: %v", err)
	}
	wcfg := f.nodeConfigToWire(false)
	f.Close()

	grade := func(severity float64) float64 {
		n := core.NewNode(nodeConfig(cfg, 0, false))
		n.SetSeverity(severity)
		return n.Deploy(bundle).Accuracy
	}
	want := grade(sev)
	if want == grade(0) {
		t.Fatal("control: severity does not move the deploy's accuracy")
	}

	cloudEnd, nodeEnd := net.Pipe()
	defer cloudEnd.Close()
	served := make(chan error, 1)
	go func() { served <- NewAgent(0).Serve(nodeEnd) }()
	send := func(typ wire.MsgType, payload []byte) {
		frame, err := wire.EncodeFrame(wire.ProtoMax, typ, payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cloudEnd.Write(frame); err != nil {
			t.Fatalf("write %v: %v", typ, err)
		}
	}
	if _, typ, _, err := wire.ReadFrame(cloudEnd); err != nil || typ != wire.MsgHello {
		t.Fatalf("handshake: got %v err %v, want Hello", typ, err)
	}
	send(wire.MsgWelcome, wire.Welcome{Proto: wire.ProtoMax, Node: 0, Epoch: 1, Cfg: wcfg}.Encode())
	send(wire.MsgDeploy, wire.Deploy{Round: 1, Severity: sev, Bundle: encoded}.Encode())
	for {
		_, typ, payload, err := wire.ReadFrame(cloudEnd)
		if err != nil {
			t.Fatalf("reading deploy result: %v", err)
		}
		if typ != wire.MsgDeployResult {
			continue
		}
		r, err := wire.DecodeDeployResult(payload)
		if err != nil {
			t.Fatal(err)
		}
		if r.Accuracy != want {
			t.Fatalf("agent graded at accuracy %v, want %v (severity %v)", r.Accuracy, want, sev)
		}
		break
	}
	send(wire.MsgBye, nil)
	if err := <-served; err != nil {
		t.Fatalf("agent: %v", err)
	}
}
