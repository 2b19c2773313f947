// Package health is the fleet health plane: a per-node registry that
// folds round outcomes (upload/deploy failures, stragglers), windowed
// admission latency and an accuracy-drift monitor into a
// Healthy/Degraded/Unhealthy verdict per node, with hysteresis so a
// single bad round cannot flap a verdict.
//
// The paper's in-situ loop keeps models serving while they retrain;
// the operational question it leaves open is WHICH node needs the
// loop's attention. This package answers it from signals the fleet
// already produces: the drift monitor compares each node's diagnosis
// accuracy (EWMA) against the baseline captured when its current model
// deployed — a widening gap is the retraining trigger the paper's
// incremental-update path exists to serve.
//
// The tracker deliberately lives OUTSIDE the deterministic fleet round
// loop: verdicts derive from wall-clock latency and may differ between
// runs, so nothing here ever feeds back into RoundReports (which are
// byte-compared across runs in tests).
package health

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"insitu/internal/telemetry"
)

// Verdict is a node's health classification. The zero value is Unknown
// (no rounds observed yet); the ordering is by severity, so a larger
// verdict is strictly worse.
type Verdict int

const (
	Unknown Verdict = iota
	Healthy
	Degraded
	Unhealthy
)

func (v Verdict) String() string {
	switch v {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Unhealthy:
		return "unhealthy"
	default:
		return "unknown"
	}
}

// GaugeValue is the numeric encoding used for fleet_node_health gauges:
// 0 healthy, 1 degraded, 2 unhealthy, -1 unknown.
func (v Verdict) GaugeValue() float64 {
	switch v {
	case Healthy:
		return 0
	case Degraded:
		return 1
	case Unhealthy:
		return 2
	default:
		return -1
	}
}

// SLO configures the thresholds a node is judged against. The zero
// value of any field selects the documented default; use DriftDisabled
// (not DriftDrop = 0) to turn the drift monitor off.
type SLO struct {
	// WindowRounds is how many recent rounds the failure-rate and
	// straggler windows cover. Default 8.
	WindowRounds int

	// DegradedFailureRate and UnhealthyFailureRate are thresholds on
	// the fraction of windowed rounds with any failure (upload, deploy
	// or timeout). Defaults 0.25 and 0.75.
	DegradedFailureRate  float64
	UnhealthyFailureRate float64

	// AdmitP99Seconds degrades a node whose windowed p99 admission
	// latency exceeds it. Default 0 (latency SLO disabled) — simulated
	// latencies depend on host load, so this is opt-in.
	AdmitP99Seconds float64

	// LatencySpan and LatencySlots shape each node's admission-latency
	// rolling window. Defaults: 5 minutes over 10 slots.
	LatencySpan  time.Duration
	LatencySlots int

	// DriftDrop degrades a node whose EWMA diagnosis accuracy has
	// fallen more than this below its deploy-time baseline. Default
	// 0.15. DriftDisabled turns the monitor off entirely (the
	// EXPERIMENTS ablation knob).
	DriftDrop     float64
	DriftDisabled bool

	// DriftAlpha is the EWMA smoothing factor (weight of the newest
	// sample). Default 0.3.
	DriftAlpha float64

	// DriftMinRounds is how many accuracy samples must accumulate
	// after a baseline reset before drift can flag. Default 2 — one
	// noisy round after a deploy is not drift.
	DriftMinRounds int

	// DownAfter and UpAfter are the hysteresis streaks: how many
	// consecutive rounds the computed verdict must hold before an
	// established verdict moves down (worse) or up (better). The FIRST
	// verdict after Unknown is adopted immediately. Defaults: 2 and 2.
	DownAfter int
	UpAfter   int
}

// DefaultSLO returns the default thresholds.
func DefaultSLO() SLO { return SLO{}.withDefaults() }

func (s SLO) withDefaults() SLO {
	if s.WindowRounds <= 0 {
		s.WindowRounds = 8
	}
	if s.DegradedFailureRate <= 0 {
		s.DegradedFailureRate = 0.25
	}
	if s.UnhealthyFailureRate <= 0 {
		s.UnhealthyFailureRate = 0.75
	}
	if s.LatencySpan <= 0 {
		s.LatencySpan = 5 * time.Minute
	}
	if s.LatencySlots <= 0 {
		s.LatencySlots = 10
	}
	if s.DriftDrop <= 0 {
		s.DriftDrop = 0.15
	}
	if s.DriftAlpha <= 0 || s.DriftAlpha > 1 {
		s.DriftAlpha = 0.3
	}
	if s.DriftMinRounds <= 0 {
		s.DriftMinRounds = 2
	}
	if s.DownAfter <= 0 {
		s.DownAfter = 2
	}
	if s.UpAfter <= 0 {
		s.UpAfter = 2
	}
	return s
}

// AdmitBuckets is the bucket layout for admission-latency windows:
// 100µs up to ~100s, exponential.
func AdmitBuckets() []float64 { return telemetry.ExpBuckets(1e-4, 2.5, 15) }

// Sample is one node-round observation fed to Tracker.Record.
type Sample struct {
	Node  int
	Round int

	// AdmitSeconds is the wall time from round broadcast to the
	// server admitting the node's capture; negative means the node
	// never responded this round (straggler/timeout).
	AdmitSeconds float64

	UploadFailed bool
	DeployFailed bool
	TimedOut     bool

	// Disconnected marks a node parked past its membership lease this
	// round (wire fleets); Disconnects/Rejoins are the node's lifetime
	// session-churn counters from the transport (absolute values; the
	// tracker keeps the latest). In-process fleets leave all three zero.
	Disconnected bool
	Disconnects  int
	Rejoins      int

	// ModelVersion is the model the node is running after this round's
	// deploy phase; a version change on a successful deploy resets the
	// drift baseline.
	ModelVersion uint32

	// Accuracy is the node's diagnosis accuracy this round; only used
	// when AccuracyValid.
	Accuracy      float64
	AccuracyValid bool
}

// roundObs is one ring entry of per-round outcomes.
type roundObs struct {
	uploadFailed bool
	deployFailed bool
	timedOut     bool
	disconnected bool
}

func (o roundObs) bad() bool {
	return o.uploadFailed || o.deployFailed || o.timedOut || o.disconnected
}

// node is the tracker's per-node state.
type node struct {
	id   int
	ring []roundObs
	n    int // filled entries (≤ len(ring))
	next int // ring write cursor

	lat *telemetry.Window

	// drift monitor: EWMA accuracy vs deploy-time baseline.
	baseline    float64
	ewma        float64
	driftObs    int
	havBaseline bool
	lastVersion uint32

	// counters over the node's lifetime (not windowed) for /fleetz.
	uploadFailures int
	deployFailures int
	stragglers     int
	rounds         int

	// membership churn: current link state plus the transport's lifetime
	// counters (latest absolute values win; see Sample).
	disconnected bool
	disconnects  int
	rejoins      int

	verdict      Verdict
	streakTarget Verdict
	streakLen    int
}

// NodeStatus is the JSON view of one node, served at /fleetz and
// returned by Record so the fleet can trace verdict transitions.
type NodeStatus struct {
	Node    int    `json:"node"`
	Verdict string `json:"verdict"`
	Rounds  int    `json:"rounds"`

	// FailureRate is the windowed fraction of rounds with any failure.
	FailureRate    float64 `json:"failure_rate"`
	UploadFailures int     `json:"upload_failures"`
	DeployFailures int     `json:"deploy_failures"`
	Stragglers     int     `json:"stragglers"`

	AdmitP50Seconds float64 `json:"admit_p50_s"`
	AdmitP95Seconds float64 `json:"admit_p95_s"`
	AdmitP99Seconds float64 `json:"admit_p99_s"`

	ModelVersion uint32  `json:"model_version"`
	Accuracy     float64 `json:"accuracy_ewma"`
	Baseline     float64 `json:"accuracy_baseline"`
	Drift        float64 `json:"drift"`
	Drifting     bool    `json:"drifting"`

	// Membership: whether the node is currently parked past its lease,
	// and how many sessions it has lost/re-established over its lifetime.
	Disconnected bool `json:"disconnected"`
	Disconnects  int  `json:"disconnects"`
	Rejoins      int  `json:"rejoins"`

	verdict Verdict
}

// VerdictValue returns the typed verdict behind the JSON string.
func (s NodeStatus) VerdictValue() Verdict { return s.verdict }

// IngestStatus is the cloud ingestion path's view: per-shard command
// queue depths, sampled at each round boundary. Sharded fleets use it to
// spot a hot shard (one deep queue among shallow ones) without per-node
// inspection.
type IngestStatus struct {
	// Shards holds one queue depth per ingestion shard, indexed by shard.
	Shards []int `json:"shard_queue_depths"`
}

// FleetStatus is the JSON document served at /fleetz.
type FleetStatus struct {
	Nodes     []NodeStatus `json:"nodes"`
	Healthy   int          `json:"healthy"`
	Degraded  int          `json:"degraded"`
	Unhealthy int          `json:"unhealthy"`
	Unknown   int          `json:"unknown"`
	Rounds    int          `json:"rounds"`
	// Ingest is the sharded ingestion path's latest sample; absent for
	// fleets that never called RecordIngest (wire fleets, older runs).
	Ingest *IngestStatus `json:"ingest,omitempty"`
}

// Status summarizes the fleet: "ok" when every known node is healthy,
// else the worst verdict present.
func (f FleetStatus) Status() string {
	switch {
	case f.Unhealthy > 0:
		return "unhealthy"
	case f.Degraded > 0:
		return "degraded"
	default:
		return "ok"
	}
}

// Tracker is the fleet-wide health registry. Record is called from the
// fleet's round loop; Snapshot and the HTTP handlers read concurrently.
type Tracker struct {
	mu    sync.Mutex
	slo   SLO
	nodes map[int]*node

	reg      *telemetry.Registry
	admitWin *telemetry.Window
	rounds   int
	ingest   *IngestStatus
}

// NewTracker builds a tracker judging against slo (zero fields take
// defaults; see SLO).
func NewTracker(slo SLO) *Tracker {
	return &Tracker{slo: slo.withDefaults(), nodes: make(map[int]*node)}
}

// SLO returns the resolved thresholds the tracker judges against.
func (t *Tracker) SLO() SLO {
	if t == nil {
		return DefaultSLO()
	}
	return t.slo
}

// AttachTelemetry makes the tracker export per-node gauges
// (fleet_node_health, fleet_node_admit_p99_seconds,
// fleet_node_failure_rate, fleet_node_drift), fleet-level verdict
// counts and the aggregate fleet_admit_latency_seconds window into reg.
// Safe to call with nil (detaches).
func (t *Tracker) AttachTelemetry(reg *telemetry.Registry) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reg = reg
	t.admitWin = reg.Window("fleet_admit_latency_seconds", AdmitBuckets(), t.slo.LatencySpan, t.slo.LatencySlots)
}

func (t *Tracker) getNode(id int) *node {
	nd := t.nodes[id]
	if nd == nil {
		nd = &node{
			id:   id,
			ring: make([]roundObs, t.slo.WindowRounds),
			lat:  telemetry.NewWindow(AdmitBuckets(), t.slo.LatencySpan, t.slo.LatencySlots),
		}
		t.nodes[id] = nd
	}
	return nd
}

// Record folds one node-round sample into the tracker and returns the
// node's updated status (verdict transitions included). Safe for
// concurrent use; no-op zero status on a nil tracker.
func (t *Tracker) Record(s Sample) NodeStatus {
	if t == nil {
		return NodeStatus{Verdict: Unknown.String()}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	nd := t.getNode(s.Node)
	if s.Round+1 > t.rounds {
		t.rounds = s.Round + 1
	}

	nd.ring[nd.next] = roundObs{
		uploadFailed: s.UploadFailed,
		deployFailed: s.DeployFailed,
		timedOut:     s.TimedOut,
		disconnected: s.Disconnected,
	}
	nd.next = (nd.next + 1) % len(nd.ring)
	if nd.n < len(nd.ring) {
		nd.n++
	}
	nd.rounds++
	if s.UploadFailed {
		nd.uploadFailures++
	}
	if s.DeployFailed {
		nd.deployFailures++
	}
	if s.TimedOut {
		nd.stragglers++
	}
	nd.disconnected = s.Disconnected
	if s.Disconnects > nd.disconnects {
		nd.disconnects = s.Disconnects
	}
	if s.Rejoins > nd.rejoins {
		nd.rejoins = s.Rejoins
	}
	if s.AdmitSeconds >= 0 {
		nd.lat.Observe(s.AdmitSeconds)
		t.admitWin.Observe(s.AdmitSeconds)
	}

	// Drift monitor: a successful deploy of a NEW version re-baselines;
	// every valid accuracy sample afterwards feeds the EWMA. A node
	// whose deploys keep failing keeps its old baseline — exactly the
	// stale-model case the monitor exists to surface.
	if s.AccuracyValid {
		newVersion := s.ModelVersion != nd.lastVersion && !s.DeployFailed && !s.TimedOut
		if newVersion || !nd.havBaseline {
			nd.baseline = s.Accuracy
			nd.ewma = s.Accuracy
			nd.driftObs = 0
			nd.havBaseline = true
		} else {
			a := t.slo.DriftAlpha
			nd.ewma = a*s.Accuracy + (1-a)*nd.ewma
			nd.driftObs++
		}
	}
	if s.ModelVersion != 0 && !s.DeployFailed && !s.TimedOut {
		nd.lastVersion = s.ModelVersion
	}

	status := t.statusLocked(nd)
	t.applyVerdictLocked(nd, t.targetLocked(status))
	status.verdict = nd.verdict
	status.Verdict = nd.verdict.String()
	t.exportLocked(nd, status)
	return status
}

// statusLocked computes the windowed stats for one node (verdict fields
// are filled by the caller).
func (t *Tracker) statusLocked(nd *node) NodeStatus {
	bad := 0
	for i := 0; i < nd.n; i++ {
		if nd.ring[i].bad() {
			bad++
		}
	}
	rate := 0.0
	if nd.n > 0 {
		rate = float64(bad) / float64(nd.n)
	}
	drift := 0.0
	if nd.havBaseline {
		drift = nd.baseline - nd.ewma
	}
	drifting := !t.slo.DriftDisabled && nd.havBaseline &&
		nd.driftObs >= t.slo.DriftMinRounds && drift > t.slo.DriftDrop
	return NodeStatus{
		Node:            nd.id,
		Rounds:          nd.rounds,
		FailureRate:     rate,
		UploadFailures:  nd.uploadFailures,
		DeployFailures:  nd.deployFailures,
		Stragglers:      nd.stragglers,
		AdmitP50Seconds: nd.lat.Quantile(0.50),
		AdmitP95Seconds: nd.lat.Quantile(0.95),
		AdmitP99Seconds: nd.lat.Quantile(0.99),
		ModelVersion:    nd.lastVersion,
		Accuracy:        nd.ewma,
		Baseline:        nd.baseline,
		Drift:           drift,
		Drifting:        drifting,
		Disconnected:    nd.disconnected,
		Disconnects:     nd.disconnects,
		Rejoins:         nd.rejoins,
	}
}

// targetLocked maps windowed stats to the verdict the node WOULD get
// with no hysteresis.
func (t *Tracker) targetLocked(s NodeStatus) Verdict {
	switch {
	// A node parked past its membership lease is unconditionally
	// unhealthy: it is not participating in rounds at all.
	case s.Disconnected:
		return Unhealthy
	case s.FailureRate >= t.slo.UnhealthyFailureRate:
		return Unhealthy
	case s.FailureRate >= t.slo.DegradedFailureRate,
		s.Drifting,
		t.slo.AdmitP99Seconds > 0 && s.AdmitP99Seconds > t.slo.AdmitP99Seconds:
		return Degraded
	default:
		return Healthy
	}
}

// applyVerdictLocked moves the node's verdict toward target with
// hysteresis: the first verdict after Unknown lands immediately;
// after that the target must hold for DownAfter (worsening) or
// UpAfter (improving) consecutive rounds.
func (t *Tracker) applyVerdictLocked(nd *node, target Verdict) {
	if nd.verdict == Unknown {
		nd.verdict = target
		nd.streakLen = 0
		return
	}
	if target == nd.verdict {
		nd.streakLen = 0
		return
	}
	if target == nd.streakTarget {
		nd.streakLen++
	} else {
		nd.streakTarget = target
		nd.streakLen = 1
	}
	need := t.slo.UpAfter
	if target > nd.verdict {
		need = t.slo.DownAfter
	}
	if nd.streakLen >= need {
		nd.verdict = target
		nd.streakLen = 0
	}
}

// exportLocked pushes one node's gauges plus fleet verdict counts into
// the attached registry. No-op when detached.
func (t *Tracker) exportLocked(nd *node, s NodeStatus) {
	if t.reg == nil {
		return
	}
	id := fmt.Sprintf("%d", nd.id)
	t.reg.Gauge(telemetry.Label("fleet_node_health", "node", id)).Set(nd.verdict.GaugeValue())
	t.reg.Gauge(telemetry.Label("fleet_node_admit_p99_seconds", "node", id)).Set(s.AdmitP99Seconds)
	t.reg.Gauge(telemetry.Label("fleet_node_failure_rate", "node", id)).Set(s.FailureRate)
	t.reg.Gauge(telemetry.Label("fleet_node_drift", "node", id)).Set(s.Drift)
	disc := 0.0
	if s.Disconnected {
		disc = 1
	}
	t.reg.Gauge(telemetry.Label("fleet_node_disconnected", "node", id)).Set(disc)
	var h, d, u, k int
	for _, other := range t.nodes {
		switch other.verdict {
		case Healthy:
			h++
		case Degraded:
			d++
		case Unhealthy:
			u++
		default:
			k++
		}
	}
	t.reg.Gauge("fleet_healthy_nodes").Set(float64(h))
	t.reg.Gauge("fleet_degraded_nodes").Set(float64(d))
	t.reg.Gauge("fleet_unhealthy_nodes").Set(float64(u))
	t.reg.Gauge("fleet_unknown_nodes").Set(float64(k))
}

// RecordIngest stores the latest ingestion-path sample: one queue depth
// per shard. Overwrites the previous sample (this is a gauge, not a
// history). Safe for concurrent use; no-op on a nil tracker.
func (t *Tracker) RecordIngest(shardDepths []int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ingest = &IngestStatus{Shards: append([]int(nil), shardDepths...)}
}

// Node returns the current status of one node.
func (t *Tracker) Node(id int) (NodeStatus, bool) {
	if t == nil {
		return NodeStatus{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	nd, ok := t.nodes[id]
	if !ok {
		return NodeStatus{}, false
	}
	s := t.statusLocked(nd)
	s.verdict = nd.verdict
	s.Verdict = nd.verdict.String()
	return s, true
}

// Snapshot returns the whole fleet's status, nodes sorted by id.
func (t *Tracker) Snapshot() FleetStatus {
	if t == nil {
		return FleetStatus{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := FleetStatus{Rounds: t.rounds, Nodes: make([]NodeStatus, 0, len(t.nodes)), Ingest: t.ingest}
	for _, nd := range t.nodes {
		s := t.statusLocked(nd)
		s.verdict = nd.verdict
		s.Verdict = nd.verdict.String()
		out.Nodes = append(out.Nodes, s)
		switch nd.verdict {
		case Healthy:
			out.Healthy++
		case Degraded:
			out.Degraded++
		case Unhealthy:
			out.Unhealthy++
		default:
			out.Unknown++
		}
	}
	sort.Slice(out.Nodes, func(i, j int) bool { return out.Nodes[i].Node < out.Nodes[j].Node })
	return out
}
