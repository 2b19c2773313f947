// Package fleet scales the In-situ AI closed loop from one simulated
// node to a concurrent deployment: one Cloud server services N in-situ
// nodes, each running the node half of the loop (capture → diagnose →
// upload) on its own goroutine with its own dataset shard, seeded lossy
// links and uplink meter. The server collects the round's uploads one
// response at a time, admits them under a per-round cap (so one chatty or
// recovering node cannot monopolize the retrain), runs ONE incremental
// retrain on the aggregated set, recalibrates the diagnosis threshold on
// the pooled calibration samples, and fans the versioned bundle out to
// every node over its own faulty downlink via deploy.Deliver.
//
// The protocol is round-synchronous and deterministic: every node always
// answers every command (a failed upload still sends its marker), the
// server sorts responses by node id before aggregating, and the
// admission cap is applied in node-id order — so a fleet run is a pure
// function of its Config and can be checkpointed at round boundaries and
// resumed byte-identically. Wall-clock time is tracked on the Fleet
// (WallSeconds) for the scaling experiments but never enters a
// RoundReport, keeping reports byte-comparable across machines.
package fleet

import (
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"insitu/internal/cloud"
	"insitu/internal/core"
	"insitu/internal/dataset"
	"insitu/internal/diagnosis"
	"insitu/internal/health"
	"insitu/internal/models"
	"insitu/internal/netsim"
	"insitu/internal/telemetry"
)

// Config parameterizes a fleet simulation.
type Config struct {
	// Nodes is the fleet size N.
	Nodes int
	Kind  core.SystemKind
	// Classes/PermClasses/SharedConvs/Probes follow core.Config.
	Classes     int
	PermClasses int
	SharedConvs int
	Probes      int
	Seed        uint64
	InSituFrac  float64
	Severity    float64
	Link        netsim.Uplink
	// FullScaleSpec prices Cloud work at paper scale (default AlexNet).
	FullScaleSpec models.NetSpec
	Cost          cloud.CostModel
	// DeployRetries bounds redeliveries per node per round.
	DeployRetries int
	// UplinkFaults injects faults into every node's upload path; each
	// node derives its own seed from Seed and its id. A dropped or
	// corrupted upload batch is lost for the round (the node still pays
	// the transmit energy) — there is no uplink retry budget.
	UplinkFaults netsim.FaultConfig
	// DownlinkFaults likewise for the deploy path (retried per
	// DeployRetries).
	DownlinkFaults netsim.FaultConfig
	// OutageNodes lists node ids whose links (both directions) are
	// permanently dark — they keep capturing and evaluating but nothing
	// moves in either direction. The rest of the fleet must not stall.
	OutageNodes []int
	// Shards partitions the in-process fleet's nodes across this many
	// independent ingestion shards (shardOf: id mod Shards), each with
	// its own bounded queue and worker goroutine. 0 means one shard per
	// node — the legacy topology, where no node can head-of-line-block
	// another. Fewer shards than nodes trades that isolation for O(S)
	// goroutines and hot state. Reports are byte-identical for every
	// value. Ignored by wire fleets (their workers are processes).
	Shards int
	// MaxLiveNodes caps how many node states the in-process fleet keeps
	// hydrated in memory, split evenly across shards; the
	// least-recently-used remainder spills to SpillDir via the checkpoint
	// framing and restores bit-identically on demand. Every shard keeps at
	// least one node resident, so the cap can only bind with at most
	// MaxLiveNodes shards: New rejects a larger shard count — the default
	// Shards of 0 (one per node) included — rather than spill nothing.
	// 0 keeps every node resident — fine to N≈1k, not to 10k+.
	MaxLiveNodes int
	// SpillDir is where cold node state spills when MaxLiveNodes is
	// set. Empty means a fresh temp dir owned (and removed) by the
	// fleet. The dir is scratch, not durable state: checkpoints remain
	// the only crash-safe artifact.
	SpillDir string
	// MaxRoundSamples caps how many uploaded samples the server admits
	// into one round's retrain and replay pool, applied in node-id
	// order. 0 = unlimited. The cap is what keeps the server's
	// serialized retrain cost bounded as N grows.
	MaxRoundSamples int
	// MaxCalibSamples likewise caps the pooled calibration set the
	// server recalibrates its diagnosis threshold on, in node-id order.
	// 0 = unlimited — at N=10k that pools ~10k·12 samples a round, so
	// scale configs should cap it.
	MaxCalibSamples int
	// EvalSamples is how many images each node evaluates its deployed
	// model on after a deploy (the NodeAccuracy column). 0 = the
	// paper-faithful 120; scale runs shrink it, because N·120 forward
	// passes per round is the fleet's single largest compute term.
	EvalSamples int
	// RoundTimeout, when positive, lets a round complete without the
	// nodes that have not answered in time (their round entries are
	// marked TimedOut). It is a straggler safety valve: leaving it 0
	// (wait forever) is what makes runs deterministic, and
	// checkpointing requires 0.
	RoundTimeout time.Duration
	// Lease, for wire fleets, is the membership liveness bound: a node
	// whose connection has carried nothing (heartbeats included) for
	// longer than this is parked out of the round — reported
	// Disconnected, skipped by later broadcasts — and rounds proceed
	// without it as long as MinQuorum nodes remain. 0 disables leases:
	// a silent node holds its round forever (or until RoundTimeout).
	// Unlike RoundTimeout, lease expiry keeps reports byte-identical
	// for every round the node does participate in, because a parked
	// node that rejoins is rebuilt to its exact pre-death state.
	Lease time.Duration
	// MinQuorum is the minimum number of round participants lease
	// expiry may leave behind; parking that would go below it is
	// deferred until a node rejoins. <=0 means 1.
	MinQuorum int
	// Trace receives fleet.round / fleet.upload / fleet.deploy events
	// (and fleet.health when Health is set).
	Trace *telemetry.Tracer
	// Health, when set, receives one sample per node per round — round
	// outcomes plus wall-clock admission latency — and folds them into
	// per-node verdicts. Health state is observability only: it never
	// feeds back into RoundReports, which stay byte-comparable.
	Health *health.Tracker
}

// DefaultConfig is core.DefaultConfig for an N-node fleet.
func DefaultConfig(kind core.SystemKind, nodes int, seed uint64) Config {
	return Config{
		Nodes:         nodes,
		Kind:          kind,
		Classes:       5,
		PermClasses:   8,
		SharedConvs:   3,
		Probes:        3,
		Seed:          seed,
		InSituFrac:    0.6,
		Severity:      0.7,
		Link:          netsim.WiFi(),
		FullScaleSpec: models.AlexNet(),
		Cost:          cloud.NewCostModel(),
		DeployRetries: 3,
	}
}

// NodeReport is one node's slice of a round.
type NodeReport struct {
	Node     int
	Captured int
	// Uploaded counts samples the node transmitted (and metered);
	// UploadFailed marks the batch as lost on the uplink, in which case
	// the server saw none of it.
	Uploaded      int
	CalibUploaded int
	UploadedBytes int64
	UploadFrac    float64
	UplinkJoules  float64
	UplinkSeconds float64
	UploadFailed  bool
	// TimedOut marks a node the round completed without (RoundTimeout).
	TimedOut bool
	// Disconnected marks a node parked past its lease (wire fleets):
	// the round ran without it under MinQuorum semantics. Exclusive
	// with TimedOut.
	Disconnected bool
	// Admitted is how many of this node's arrived samples passed the
	// server's admission cap into the retrain.
	Admitted int
	// NodeAccuracy is the node's deployed-model accuracy after the
	// round's deploy, on the node's own capture mix.
	NodeAccuracy         float64
	ModelVersion         uint32
	DeployAttempts       int
	DeployFailed         bool
	StaleModel           bool
	RetransmitBytes      int64
	DeployBackoffSeconds float64
	DiagnosisQuality     diagnosis.Quality
}

// RoundReport is the outcome of one fleet round (round 0 = bootstrap).
// It intentionally carries no wall-clock time: reports are byte-compared
// across interrupted and uninterrupted runs.
type RoundReport struct {
	Round int
	Kind  core.SystemKind
	Nodes []NodeReport
	// Uploaded counts samples that arrived at the server; Admitted what
	// passed the cap; Trained what the single aggregated retrain used.
	Uploaded int
	Admitted int
	Trained  int
	// CloudCost prices the round's ONE aggregated retrain at full
	// scale; PerNodeCloudCost is each uploader's amortized share of it.
	CloudCost        cloud.Cost
	PerNodeCloudCost cloud.Cost
	CloudVersion     uint32
	MeanAccuracy     float64
}

// Fleet is one simulated deployment: a Cloud server plus N node workers.
type Fleet struct {
	Cfg Config

	// cloud is the server's half of the loop (touched only between
	// worker phases).
	cloud *cloud.Server
	round int

	peers []peer
	// results hands every node response (local shard workers and remote
	// peers alike) to the collect loop, one at a time. Unbuffered: a
	// worker waits for the server to take its response before it starts
	// its next node — backpressure, not loss. quit, closed by Close,
	// releases a worker whose response nobody will collect.
	results chan roundMsg
	quit    chan struct{}
	// shards are the in-process ingestion partitions (nil for wire
	// fleets); spillDir holds their cold node state when
	// Config.MaxLiveNodes is set, removed on Close when ownSpill.
	shards   []*shard
	spillDir string
	ownSpill bool
	// admitLats accumulates every collected capture response's
	// wall-clock admission latency (seconds) across rounds — the p99
	// source for the scale benchmarks. Wall-clock, so never part of a
	// RoundReport.
	admitLats []float64
	wall      float64
	closed    bool
	// remote is set for fleets built by Listen: peers speak the wire
	// protocol, so deploy bundles are frame-encoded once per round.
	remote bool
	outage map[int]bool

	// Membership plumbing (wire fleets; see membership.go). memberMu
	// guards the fields below plus peer-slot creation and closed.
	memberMu  sync.Mutex
	ln        net.Listener
	lnDone    chan struct{} // accept loop exited
	joined    map[int]bool  // slots that completed a first handshake
	allJoined chan struct{} // closed when every slot has joined once
	acceptErr error

	// stall, when set, delays a node's capture — the straggler test
	// hook exercising RoundTimeout.
	stall func(node, round int)
}

// newServer builds the Cloud half of a fleet — everything except the
// node peers, which New (in-process) and Listen (wire) attach.
func newServer(cfg Config) *Fleet {
	if cfg.Nodes < 1 {
		panic("fleet: bad config")
	}
	f := &Fleet{
		Cfg: cfg,
		cloud: cloud.NewServer(cloud.Config{
			Classes:       cfg.Classes,
			PermClasses:   cfg.PermClasses,
			SharedConvs:   cfg.SharedConvs,
			Probes:        cfg.Probes,
			Seed:          cfg.Seed,
			FullScaleSpec: cfg.FullScaleSpec,
			Cost:          cfg.Cost,
		}),
		results: make(chan roundMsg),
		quit:    make(chan struct{}),
	}
	f.outage = f.outageSet()
	return f
}

// submit hands one node response to the collect loop, blocking
// (backpressure) until the loop takes it. Only a straggler's stale
// leftover can still be waiting here when the fleet closes; it is
// dropped — round accounting moved on when RoundTimeout abandoned it.
func (f *Fleet) submit(msg roundMsg) {
	select {
	case f.results <- msg:
	case <-f.quit:
	}
}

// outageSet expands Config.OutageNodes into a lookup.
func (f *Fleet) outageSet() map[int]bool {
	outage := make(map[int]bool, len(f.Cfg.OutageNodes))
	for _, id := range f.Cfg.OutageNodes {
		outage[id] = true
	}
	return outage
}

// New constructs an in-process fleet and starts its (idle) shard
// workers; call Bootstrap before RunRound, and Close when done with the
// fleet. Node states hydrate lazily inside their shard, so constructing
// a 10k-node fleet is cheap until commands flow.
func New(cfg Config) *Fleet {
	f := newServer(cfg)
	nshards, err := cfg.ShardCount()
	if err != nil {
		panic(fmt.Sprintf("fleet: bad config: %v", err))
	}
	if cfg.MaxLiveNodes > 0 {
		if cfg.SpillDir != "" {
			if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
				panic(fmt.Sprintf("fleet: spill dir: %v", err))
			}
			f.spillDir = cfg.SpillDir
		} else {
			dir, err := os.MkdirTemp("", "insitu-spill-")
			if err != nil {
				panic(fmt.Sprintf("fleet: spill dir: %v", err))
			}
			f.spillDir = dir
			f.ownSpill = true
		}
	}
	f.shards = make([]*shard, nshards)
	for s := range f.shards {
		members := cfg.Nodes / nshards
		if s < cfg.Nodes%nshards {
			members++
		}
		maxLive := 0
		if cfg.MaxLiveNodes > 0 {
			maxLive = (cfg.MaxLiveNodes + nshards - 1) / nshards
		}
		f.shards[s] = newShard(f, s, members, maxLive)
	}
	f.peers = make([]peer, cfg.Nodes)
	for i := range f.peers {
		f.peers[i] = &shardPeer{s: f.shards[shardOf(i, nshards)], nodeID: i}
	}
	return f
}

// Close stops the node peers (workers or connections) and, for wire
// fleets, the listener and its accept loop. The fleet must be quiesced
// (no round in flight); further rounds panic.
func (f *Fleet) Close() {
	f.memberMu.Lock()
	if f.closed {
		f.memberMu.Unlock()
		return
	}
	f.closed = true
	ln, lnDone := f.ln, f.lnDone
	peers := append([]peer(nil), f.peers...)
	f.memberMu.Unlock()
	if ln != nil {
		ln.Close()
		<-lnDone
	}
	// Before the workers: a stale straggler blocked in submit must
	// unblock for its shard to drain.
	close(f.quit)
	for _, p := range peers {
		if p != nil { // Listen may abort with slots never filled
			p.shutdown()
		}
	}
	if f.ownSpill {
		os.RemoveAll(f.spillDir)
	}
}

// Round returns the loop position: 0 before Bootstrap, then 1 plus the
// number of incremental rounds completed — the fleet analogue of
// core.System.Stage.
func (f *Fleet) Round() int { return f.round }

// WallSeconds returns the wall-clock time spent inside Bootstrap and
// RunRound so far. It feeds the scaling experiments and is deliberately
// kept out of RoundReports (which are byte-compared across runs).
func (f *Fleet) WallSeconds() float64 { return f.wall }

// CloudVersion returns the latest bundle version the server published.
func (f *Fleet) CloudVersion() uint32 { return f.cloud.Version() }

// Health returns the fleet's health tracker (nil when none configured).
func (f *Fleet) Health() *health.Tracker { return f.Cfg.Health }

// Bootstrap runs round 0: every node captures and uploads n raw images,
// the server pre-trains the unsupervised network on the admitted pool,
// transfers into the inference network, fine-tunes, calibrates the
// diagnosis threshold and deploys v1 to the whole fleet.
func (f *Fleet) Bootstrap(n int) RoundReport {
	if f.round != 0 {
		panic("fleet: Bootstrap after rounds have run")
	}
	start := time.Now()
	parked := make(map[int]bool)
	expected := f.broadcast(workerCmd{kind: cmdCapture, round: 0, n: n, bootstrap: true}, parked)
	ups, lats := f.collectUploads(0, expected, start, parked)
	admitted, trainSet, _ := f.admit(ups)
	f.cloud.Bootstrap(trainSet)
	rep := f.deployRound(0, ups, admitted, len(trainSet), 0, lats, parked)
	f.round = 1
	f.saveSessions()
	f.wall += time.Since(start).Seconds()
	return rep
}

// RunRound runs one incremental round: every node captures n images,
// diagnoses and uploads; the server aggregates, retrains once,
// recalibrates and redeploys.
func (f *Fleet) RunRound(n int) RoundReport {
	if f.round == 0 {
		panic("fleet: RunRound before Bootstrap")
	}
	start := time.Now()
	round := f.round
	parked := make(map[int]bool)
	expected := f.broadcast(workerCmd{kind: cmdCapture, round: round, n: n}, parked)
	ups, lats := f.collectUploads(round, expected, start, parked)
	admitted, trainSet, calibs := f.admit(ups)

	locked := 0
	if f.Cfg.Kind.UsesWeightSharing() {
		locked = f.Cfg.SharedConvs
	}
	// ONE retrain on the aggregate, recalibrated on the calibration
	// samples pooled across nodes.
	trained := f.cloud.Update(trainSet, calibs, locked, f.Cfg.Kind == core.SystemCloudDiagnosis)
	rep := f.deployRound(round, ups, admitted, trained, locked, lats, parked)
	f.round++
	f.saveSessions()
	f.wall += time.Since(start).Seconds()
	return rep
}

// broadcast sends one command to every participating worker and
// returns the set of node ids a response is expected from. Parked
// (lease-expired) peers are skipped and recorded in parked. Without a
// RoundTimeout the sends block (workers always drain their queue, so
// this cannot deadlock); with one, a stalled worker whose command
// buffer is full is skipped — the round will mark it TimedOut. Round
// commands delivered to remote peers also land on their rejoin replay
// list, so a mid-round restart re-executes exactly this command
// stream.
func (f *Fleet) broadcast(cmd workerCmd, parked map[int]bool) map[int]bool {
	if f.closed {
		panic("fleet: round after Close")
	}
	expected := make(map[int]bool, len(f.peers))
	for _, p := range f.peers {
		rp, _ := p.(*remotePeer)
		if rp != nil && rp.isParked() {
			parked[p.id()] = true
			continue
		}
		if p.enqueue(cmd, f.Cfg.RoundTimeout <= 0) {
			expected[p.id()] = true
			if rp != nil {
				rp.noteRoundCmd(cmd)
			}
		}
	}
	return expected
}

// collect gathers the expected responses of the given kind/round,
// discarding stale leftovers from timed-out phases, and returns them by
// node id. Missing ids timed out or, under lease expiry, were parked
// mid-collect (recorded in parked, removed from expected). each, when
// non-nil, is called once per accepted message as it arrives — the hook
// the upload path uses to time admissions and to trim over-cap samples
// incrementally instead of holding a whole fleet's uploads until
// admission.
func (f *Fleet) collect(kind cmdKind, round int, expected, parked map[int]bool, each func(roundMsg)) map[int]roundMsg {
	got := make(map[int]roundMsg, len(expected))
	var timeout <-chan time.Time
	if f.Cfg.RoundTimeout > 0 {
		timer := time.NewTimer(f.Cfg.RoundTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	var leaseTick <-chan time.Time
	if f.remote && f.Cfg.Lease > 0 {
		poll := f.Cfg.Lease / 4
		if poll < 25*time.Millisecond {
			poll = 25 * time.Millisecond
		}
		if poll > 250*time.Millisecond {
			poll = 250 * time.Millisecond
		}
		ticker := time.NewTicker(poll)
		defer ticker.Stop()
		leaseTick = ticker.C
	}
	for len(got) < len(expected) {
		select {
		case m := <-f.results:
			if _, dup := got[m.node]; dup || m.kind != kind || m.round != round || !expected[m.node] {
				countStaleDiscard()
				continue
			}
			got[m.node] = m
			if each != nil {
				each(m)
			}
		case <-timeout:
			return got
		case <-leaseTick:
			for _, id := range f.parkExpired(expected, got) {
				parked[id] = true
			}
		}
	}
	return got
}

// AdmitLatencyP99 returns the p99 of every wall-clock admission latency
// (a round's broadcast to a capture response collected) so far, in
// seconds — the scale benchmark's headline column. Wall-clock, so it
// varies run to run and never enters a RoundReport.
func (f *Fleet) AdmitLatencyP99() float64 {
	if len(f.admitLats) == 0 {
		return 0
	}
	lats := append([]float64(nil), f.admitLats...)
	sort.Float64s(lats)
	idx := (len(lats)*99 + 99) / 100
	if idx > len(lats) {
		idx = len(lats)
	}
	return lats[idx-1]
}

// trimEvery is how many upload arrivals pass between incremental
// over-cap trims during collect. Between trims the pool can overshoot
// the caps by at most trimEvery uploads' worth of samples (~21 MB at
// the default round sizes) — the bounded price of not re-scanning the
// whole fleet per arrival.
const trimEvery = 128

// collectUploads normalizes the capture phase into a dense per-node
// slice (nil = timed out or parked), restoring node-id order so every
// later step is deterministic regardless of goroutine scheduling. While
// responses stream in it incrementally trims each node's samples to the
// most the admission caps could ever grant it, so the server's resident
// upload pool is O(cap), not O(N), by the time admit runs. Also returns
// each node's wall-clock arrival latency since start (the health plane's
// admission-latency signal; latencies never enter RoundReports).
func (f *Fleet) collectUploads(round int, expected map[int]bool, start time.Time, parked map[int]bool) ([]*core.Upload, map[int]float64) {
	ups := make([]*core.Upload, len(f.peers))
	lats := make(map[int]float64, len(expected))
	arrivals := 0
	f.collect(cmdCapture, round, expected, parked, func(m roundMsg) {
		lat := time.Since(start).Seconds()
		lats[m.node] = lat
		f.admitLats = append(f.admitLats, lat)
		up := m.up
		ups[m.node] = &up
		if arrivals++; arrivals%trimEvery == 0 {
			f.trimPending(ups)
		}
	})
	return ups, lats
}

// trimPending shrinks pending uploads to upper bounds on what admission
// can still grant them. Admission is greedy in node-id order, so a
// node's final take only shrinks as lower-id uploads arrive — the take
// computed over the arrivals so far is a safe bound, and trimming to it
// cannot change admit's output. Trimmed slices are copied so the freed
// tail tensors are actually collectable (a re-slice would pin the whole
// backing array).
func (f *Fleet) trimPending(ups []*core.Upload) {
	remSamples := f.Cfg.MaxRoundSamples
	remCalib := f.Cfg.MaxCalibSamples
	for _, up := range ups {
		if up == nil {
			continue
		}
		if up.Failed {
			up.Samples, up.Calib = nil, nil
			continue
		}
		if f.Cfg.MaxRoundSamples > 0 {
			take := len(up.Samples)
			if take > remSamples {
				take = remSamples
				up.Samples = append([]dataset.Sample(nil), up.Samples[:take]...)
			}
			remSamples -= take
		}
		if f.Cfg.MaxCalibSamples > 0 {
			take := len(up.Calib)
			if take > remCalib {
				take = remCalib
				up.Calib = append([]dataset.Sample(nil), up.Calib[:take]...)
			}
			remCalib -= take
		}
	}
}

// admit applies the per-round admission cap in node-id order and
// returns the per-node admitted counts, the round's training set and the
// pooled calibration samples. Failed or timed-out nodes contribute
// nothing.
func (f *Fleet) admit(ups []*core.Upload) (admitted []int, trainSet, calibs []dataset.Sample) {
	admitted = make([]int, len(ups))
	unlimited := f.Cfg.MaxRoundSamples <= 0
	remaining := f.Cfg.MaxRoundSamples
	calibUnlimited := f.Cfg.MaxCalibSamples <= 0
	calibRemaining := f.Cfg.MaxCalibSamples
	for id, up := range ups {
		if up == nil || up.Failed {
			continue
		}
		take := len(up.Samples)
		if !unlimited {
			if take > remaining {
				take = remaining
			}
			remaining -= take
		}
		admitted[id] = take
		trainSet = append(trainSet, up.Samples[:take]...)
		ctake := len(up.Calib)
		if !calibUnlimited {
			if ctake > calibRemaining {
				ctake = calibRemaining
			}
			calibRemaining -= ctake
		}
		calibs = append(calibs, up.Calib[:ctake]...)
	}
	return admitted, trainSet, calibs
}

// deployRound publishes one bundle version, fans it out to every node
// over its own downlink, collects the per-node outcomes and assembles
// the round report. admitLats carries the capture phase's wall-clock
// arrival latencies for the health plane.
func (f *Fleet) deployRound(round int, ups []*core.Upload, admitted []int, trained, locked int, admitLats map[int]float64, parked map[int]bool) RoundReport {
	bundle, err := f.cloud.Pack()
	if err != nil {
		panic(fmt.Sprintf("fleet: packing deployment: %v", err))
	}
	cmd := workerCmd{kind: cmdDeploy, round: round, bundle: bundle}
	if f.remote {
		// Remote peers ship the encoded frame; encode exactly once so a
		// fleet-wide deploy costs one serialization, not N.
		if cmd.encoded, err = bundle.EncodeBytes(); err != nil {
			panic(fmt.Sprintf("fleet: encoding deployment: %v", err))
		}
	}
	expected := f.broadcast(cmd, parked)
	deps := f.collect(cmdDeploy, round, expected, parked, nil)

	rep := RoundReport{
		Round:        round,
		Kind:         f.Cfg.Kind,
		CloudVersion: f.cloud.Version(),
		Nodes:        make([]NodeReport, len(f.peers)),
	}
	uploaders := 0
	accSum, accN := 0.0, 0
	for id := range f.peers {
		nr := NodeReport{Node: id, TimedOut: true}
		if parked[id] {
			nr.TimedOut = false
			nr.Disconnected = true
		}
		if up := ups[id]; up != nil {
			nr.TimedOut = false
			nr.Captured = up.Captured
			nr.Uploaded = up.Uploaded
			nr.CalibUploaded = up.CalibN
			nr.UploadedBytes = up.UpBytes
			if up.Captured > 0 {
				nr.UploadFrac = float64(up.Uploaded) / float64(up.Captured)
			}
			nr.UplinkJoules = up.UplinkJ
			nr.UplinkSeconds = up.UplinkS
			nr.UploadFailed = up.Failed
			nr.DiagnosisQuality = up.Quality
			nr.Admitted = admitted[id]
			if !up.Failed {
				rep.Uploaded += up.Uploaded
				uploaders++
			}
		}
		if m, ok := deps[id]; ok {
			d := m.dep
			nr.NodeAccuracy = d.Accuracy
			nr.ModelVersion = d.Version
			nr.DeployAttempts = d.Attempts
			nr.DeployFailed = d.Failed
			nr.StaleModel = d.Version < f.cloud.Version()
			nr.RetransmitBytes = d.Retransmits
			nr.DeployBackoffSeconds = d.Backoff
			accSum += d.Accuracy
			accN++
		} else if !parked[id] {
			nr.TimedOut = true
		}
		rep.Admitted += admitted[id]
		rep.Nodes[id] = nr
	}
	rep.Trained = trained
	if trained > 0 {
		pre, update := f.cloud.Costs(trained, locked)
		rep.CloudCost = pre
		rep.CloudCost.Add(update)
		if uploaders > 0 {
			// Each uploader's share of the single aggregated retrain.
			u := float64(uploaders)
			rep.PerNodeCloudCost = cloud.Cost{
				Seconds: update.Seconds/u + pre.Seconds/u,
				Joules:  update.Joules/u + pre.Joules/u,
			}
		}
	}
	if accN > 0 {
		rep.MeanAccuracy = accSum / float64(accN)
	}
	f.record(rep)
	f.recordHealth(rep, admitLats, deps)
	return rep
}
