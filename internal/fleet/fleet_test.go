package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"insitu/internal/ckpt"
	"insitu/internal/core"
	"insitu/internal/dataset"
	"insitu/internal/netsim"
	"insitu/internal/telemetry"
)

func testCfg(nodes int) Config {
	cfg := DefaultConfig(core.SystemInSituAI, nodes, 11)
	cfg.Classes = 3
	cfg.PermClasses = 4
	return cfg
}

// run drives a fleet through bootstrap plus the given rounds and
// returns all reports, closing the fleet afterwards.
func run(cfg Config, boot int, rounds []int) []RoundReport {
	f := New(cfg)
	defer f.Close()
	reps := []RoundReport{f.Bootstrap(boot)}
	for _, n := range rounds {
		reps = append(reps, f.RunRound(n))
	}
	return reps
}

func reportJSON(t *testing.T, reps []RoundReport) []byte {
	t.Helper()
	b, err := json.MarshalIndent(reps, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The whole point of the round-synchronous protocol: N concurrent
// workers, faulty links and all, produce byte-identical reports on
// every run.
func TestFleetDeterministicAcrossRuns(t *testing.T) {
	t.Parallel()
	cfg := testCfg(3)
	cfg.UplinkFaults = netsim.FaultConfig{DropProb: 0.2}
	cfg.DownlinkFaults = netsim.FaultConfig{CorruptProb: 0.3}
	rounds := []int{24, 24}
	if testing.Short() {
		rounds = rounds[:1]
	}
	a := reportJSON(t, run(cfg, 32, rounds))
	b := reportJSON(t, run(cfg, 32, rounds))
	if !bytes.Equal(a, b) {
		t.Fatalf("same config, different reports:\n%s\n---\n%s", a, b)
	}
}

// One node in permanent outage must not stall the fleet: the other
// N-1 keep uploading, the server keeps retraining, and the dark node
// is reported failed rather than blocking the round.
func TestFleetOutageNodeDoesNotBlock(t *testing.T) {
	t.Parallel()
	cfg := testCfg(4)
	cfg.OutageNodes = []int{2}
	reps := run(cfg, 32, []int{24, 24})

	for _, rep := range reps {
		dark := rep.Nodes[2]
		if !dark.UploadFailed {
			t.Fatalf("round %d: outage node upload should fail", rep.Round)
		}
		if !dark.DeployFailed || dark.ModelVersion != 0 {
			t.Fatalf("round %d: outage node should never receive a deploy (failed=%v v=%d)",
				rep.Round, dark.DeployFailed, dark.ModelVersion)
		}
		if dark.Admitted != 0 {
			t.Fatalf("round %d: server admitted samples from a dark node", rep.Round)
		}
		if rep.Trained == 0 {
			t.Fatalf("round %d: the live nodes' uploads should keep training going", rep.Round)
		}
		for _, id := range []int{0, 1, 3} {
			nr := rep.Nodes[id]
			if nr.UploadFailed || nr.Uploaded == 0 {
				t.Fatalf("round %d: live node %d failed to upload", rep.Round, id)
			}
			if nr.ModelVersion != rep.CloudVersion {
				t.Fatalf("round %d: live node %d on v%d, cloud at v%d",
					rep.Round, id, nr.ModelVersion, rep.CloudVersion)
			}
		}
	}
}

// The admission cap is applied in node-id order, so a fixed budget
// fills from node 0 and the overflow is rejected deterministically.
func TestFleetAdmissionCap(t *testing.T) {
	t.Parallel()
	cfg := testCfg(4)
	cfg.MaxRoundSamples = 40
	f := New(cfg)
	defer f.Close()
	rep := f.Bootstrap(32) // 4 nodes x 32 raw uploads against a 40 budget

	if rep.Uploaded != 128 {
		t.Fatalf("uploaded %d, want 128", rep.Uploaded)
	}
	if rep.Admitted != 40 || rep.Trained != 40 {
		t.Fatalf("admitted %d trained %d, want 40/40", rep.Admitted, rep.Trained)
	}
	want := []int{32, 8, 0, 0}
	for id, w := range want {
		if got := rep.Nodes[id].Admitted; got != w {
			t.Fatalf("node %d admitted %d, want %d", id, got, w)
		}
	}
}

// The one-at-a-time hand-off serializes ingestion without deadlocking:
// six workers each block until the server takes their response, and the
// round still completes.
func TestFleetBackpressure(t *testing.T) {
	t.Parallel()
	reps := run(testCfg(6), 24, []int{16})
	if got := len(reps); got != 2 {
		t.Fatalf("completed %d rounds, want 2", got)
	}
	if reps[1].Uploaded == 0 {
		t.Fatal("no uploads arrived through the hand-off")
	}
}

// The admission p99 is over capture-phase arrivals only: the deploy
// phase collects through the same loop but is timed from a different
// start, so it must not land in the same population.
func TestAdmitLatencyCountsCaptureArrivalsOnly(t *testing.T) {
	t.Parallel()
	cfg := testCfg(3)
	cfg.EvalSamples = 8
	f := New(cfg)
	defer f.Close()
	f.Bootstrap(8)
	f.RunRound(8)
	if got := len(f.admitLats); got != 6 {
		t.Fatalf("%d admission latencies after 2 rounds x 3 nodes, want 6", got)
	}
}

// RoundTimeout is the straggler valve: a node stalled mid-capture is
// abandoned (TimedOut) and its late answers are discarded and counted,
// after which it rejoins cleanly.
func TestFleetStragglerTimesOutAndRejoins(t *testing.T) {
	t.Parallel()
	// No other test in the package leaves stale messages behind, so the
	// process-wide counter is this test's alone.
	reg := telemetry.NewRegistry()
	EnableTelemetry(reg)
	defer EnableTelemetry(nil)
	cfg := testCfg(3)
	// One generous timeout for both rounds, fixed before the workers
	// spawn: mutating Cfg mid-run races with worker reads of it, and the
	// margin only needs to beat the responsive nodes — the straggler
	// blocks on a channel, so it times out no matter how wide this is.
	cfg.RoundTimeout = 10 * time.Second
	f := New(cfg)
	defer f.Close()

	release := make(chan struct{})
	f.stall = func(node, round int) {
		if node == 2 && round == 0 {
			<-release
		}
	}
	boot := f.Bootstrap(24)
	if !boot.Nodes[2].TimedOut {
		t.Fatal("stalled node should have timed out")
	}
	for _, id := range []int{0, 1} {
		if boot.Nodes[id].TimedOut {
			t.Fatalf("node %d timed out alongside the straggler", id)
		}
	}
	if boot.Trained == 0 {
		t.Fatal("bootstrap should have trained on the responsive nodes' uploads")
	}

	// Unblock the straggler; its stale round-0 answers (the capture, and
	// the deploy queued behind it) must be discarded, not mistaken for
	// round 1.
	close(release)
	rep := f.RunRound(16)
	for id, nr := range rep.Nodes {
		if nr.TimedOut {
			t.Fatalf("round 1: node %d still timed out", id)
		}
	}
	if rep.Nodes[2].Uploaded == 0 {
		t.Fatal("rejoined straggler uploaded nothing")
	}
	if got, want := rep.Nodes[2].Captured, rep.Nodes[0].Captured; got != want {
		t.Fatalf("round 1 reports the straggler capturing %d images, its neighbours %d: a stale answer got in", got, want)
	}
	if got := reg.Counter("fleet_stale_messages_total").Value(); got != 2 {
		t.Fatalf("fleet_stale_messages_total = %d, want 2", got)
	}
}

// Close with a straggler's answer still un-collected: RoundTimeout
// abandoned the node, nobody will ever receive what it submits, and
// Close must release it — a worker left blocked in submit would keep its
// shard from draining and Close from returning.
func TestCloseReleasesUncollectedStraggler(t *testing.T) {
	t.Parallel()
	cfg := testCfg(3)
	cfg.EvalSamples = 8
	cfg.RoundTimeout = 5 * time.Second
	f := New(cfg)
	release := make(chan struct{})
	f.stall = func(node, round int) {
		if node == 2 {
			<-release
		}
	}
	if boot := f.Bootstrap(8); !boot.Nodes[2].TimedOut {
		t.Fatal("stalled node should have timed out")
	}

	close(release)
	closed := make(chan struct{})
	go func() {
		f.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close hung on a straggler blocked in submit")
	}
	select {
	case <-f.shards[2].done:
	default:
		t.Fatal("Close returned with the straggler's shard worker still running")
	}
}

// Full crash round trip through the on-disk store, with downlink
// faults in play: run with per-round snapshots, abandon everything but
// the directory, resume, finish, and byte-compare against an
// uninterrupted run.
func TestFleetCheckpointResumeMatchesUninterrupted(t *testing.T) {
	t.Parallel()
	cfg := testCfg(3)
	cfg.DownlinkFaults = netsim.FaultConfig{CorruptProb: 0.3}
	rounds := []int{24, 24}
	if testing.Short() {
		rounds = rounds[:1]
	}
	baseline := reportJSON(t, run(cfg, 32, rounds))

	dir := t.TempDir()
	store, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCheckpointer(store, New(cfg), 1)
	if err := c.OnRound(c.Fleet().Bootstrap(32)); err != nil {
		t.Fatal(err)
	}

	// The crash: only the directory survives.
	c.Fleet().Close()
	store2, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ResumeCheckpointer(store2, cfg, 1)
	if err != nil {
		t.Fatalf("ResumeCheckpointer: %v", err)
	}
	defer c2.Fleet().Close()
	if got := c2.Fleet().Round(); got != 1 {
		t.Fatalf("resumed at round %d, want 1", got)
	}
	for _, n := range rounds {
		if err := c2.OnRound(c2.Fleet().RunRound(n)); err != nil {
			t.Fatal(err)
		}
	}
	resumed := reportJSON(t, c2.History())
	if !bytes.Equal(baseline, resumed) {
		t.Fatalf("resumed history diverged from uninterrupted run:\n%s\n---\n%s",
			baseline, resumed)
	}
}

// The corrupt-latest path end to end: damage the newest snapshot on
// disk and resume — the checkpointer must fall back to the previous one
// and re-run the missing round deterministically.
func TestCheckpointerTornSnapshotFallback(t *testing.T) {
	t.Parallel()
	cfg := testCfg(1)
	rounds := []int{16, 16}
	baseline := reportJSON(t, run(cfg, 24, rounds))

	dir := t.TempDir()
	store, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := New(cfg)
	c := NewCheckpointer(store, f, 1)
	if err := c.OnRound(f.Bootstrap(24)); err != nil {
		t.Fatal(err)
	}
	if err := c.OnRound(f.RunRound(rounds[0])); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// Tear the newest snapshot (snap-00000001): resume must fall back to
	// the bootstrap snapshot and redo round 1.
	torn := filepath.Join(dir, "snap-00000001.ckpt")
	raw, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	store2, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ResumeCheckpointer(store2, cfg, 1)
	if err != nil {
		t.Fatalf("ResumeCheckpointer after torn snapshot: %v", err)
	}
	f2 := c2.Fleet()
	defer f2.Close()
	if got := f2.Round(); got != 1 {
		t.Fatalf("fell back to round %d, want 1 (bootstrap snapshot)", got)
	}
	for _, n := range rounds {
		if err := c2.OnRound(f2.RunRound(n)); err != nil {
			t.Fatal(err)
		}
	}
	if got := reportJSON(t, c2.History()); !bytes.Equal(baseline, got) {
		t.Fatalf("history after torn-snapshot fallback diverged:\n%s\n---\n%s", baseline, got)
	}
}

// A snapshot must refuse to resume under a config describing a
// different experiment.
func TestFleetResumeConfigMismatch(t *testing.T) {
	t.Parallel()
	cfg := testCfg(2)
	f := New(cfg)
	f.Bootstrap(24)
	var buf bytes.Buffer
	if err := f.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for name, mutate := range map[string]func(*Config){
		"nodes":   func(c *Config) { c.Nodes = 3 },
		"classes": func(c *Config) { c.Classes = 4 },
		"seed":    func(c *Config) { c.Seed++ },
		"cap":     func(c *Config) { c.MaxRoundSamples = 7 },
		// The starting environment is part of the identity: a snapshot
		// from another environment must not load.
		"in-situ":  func(c *Config) { c.InSituFrac = 0.3 },
		"severity": func(c *Config) { c.Severity = 0.2 },
	} {
		bad := cfg
		mutate(&bad)
		if _, err := Resume(bad, bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrConfigMismatch) {
			t.Fatalf("%s: Resume error = %v, want ErrConfigMismatch", name, err)
		}
	}
}

// Resume takes any reader, so everything in the stream is untrusted: a
// replay-pool count patched far beyond the samples that follow must run
// into the end of the stream (not ask the allocator for ~96 GiB), and a
// snapshot in the previous layout must fail on its magic.
func TestFleetResumeRejectsDamagedStreams(t *testing.T) {
	t.Parallel()
	cfg := testCfg(2)
	f := New(cfg)
	pool := f.Bootstrap(24).Admitted
	var buf bytes.Buffer
	if err := f.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// The pool closes the server section; the framed node blobs follow.
	at := buf.Len() - pool*(16+int(dataset.ImageBytes)) - 4
	for _, p := range f.peers {
		at -= 8 + len(peerState(p, workerCmd{kind: cmdStateSave}).data)
	}
	f.Close()

	raw := buf.Bytes()
	if got := binary.LittleEndian.Uint32(raw[at:]); int(got) != pool {
		t.Fatalf("pool count at offset %d reads %d, want %d", at, got, pool)
	}
	huge := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(huge[at:], math.MaxUint32)
	if _, err := Resume(cfg, bytes.NewReader(huge)); err == nil {
		t.Error("Resume accepted a pool count far beyond the stream")
	}

	copy(raw, "ISFL0004")
	if _, err := Resume(cfg, bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "bad checkpoint magic") {
		t.Errorf("Resume of an ISFL0004 stream: %v, want a bad-magic error", err)
	}
}

// The per-node cost metrics of a single-node fleet must match the
// shape core reports: one uploader pays the whole retrain.
func TestFleetSingleNodeCostsUnamortized(t *testing.T) {
	t.Parallel()
	reps := run(testCfg(1), 32, []int{24})
	for _, rep := range reps {
		if rep.Trained == 0 {
			continue
		}
		if rep.PerNodeCloudCost != rep.CloudCost {
			t.Fatalf("round %d: single node should bear the full cost (%+v vs %+v)",
				rep.Round, rep.PerNodeCloudCost, rep.CloudCost)
		}
	}
}
