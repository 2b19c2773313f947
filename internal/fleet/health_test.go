package fleet

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"insitu/internal/ckpt"
	"insitu/internal/health"
	"insitu/internal/netsim"
	"insitu/internal/telemetry"
)

// A fleet with one permanently dark node must report that node
// Unhealthy and the rest Healthy, emit one valid fleet.health event per
// node per round, and keep the round reports identical to a run without
// the health plane (observability must not perturb the experiment).
func TestFleetHealthVerdictsAndTrace(t *testing.T) {
	t.Parallel()
	cfg := testCfg(4)
	cfg.OutageNodes = []int{2}

	// The no-health baseline doubles the training work; -short keeps the
	// verdict/trace assertions and drops only the byte-equality check.
	var baseline []byte
	if !testing.Short() {
		baseline = reportJSON(t, run(cfg, 24, []int{16}))
	}

	var traceBuf bytes.Buffer
	cfg.Trace = telemetry.NewTracer(&traceBuf)
	cfg.Health = health.NewTracker(health.SLO{})
	got := reportJSON(t, run(cfg, 24, []int{16}))
	if baseline != nil && !bytes.Equal(baseline, got) {
		t.Fatalf("health plane changed round reports:\n%s\n---\n%s", baseline, got)
	}

	snap := cfg.Health.Snapshot()
	if len(snap.Nodes) != 4 || snap.Rounds != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	for _, n := range snap.Nodes {
		want := "healthy"
		if n.Node == 2 {
			want = "unhealthy"
		}
		if n.Verdict != want {
			t.Errorf("node %d verdict = %s, want %s", n.Node, n.Verdict, want)
		}
	}
	// Every non-outage node answered both rounds, so its windowed p99
	// must be a real latency.
	if p := snap.Nodes[0].AdmitP99Seconds; p <= 0 {
		t.Errorf("node 0 admit p99 = %g, want > 0", p)
	}

	if err := cfg.Trace.Flush(); err != nil {
		t.Fatal(err)
	}
	stats, err := telemetry.ValidateTrace(&traceBuf)
	if err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if got := stats.ByEvent["fleet.health"]; got != 4*2 {
		t.Errorf("fleet.health events = %d, want 8", got)
	}
	if stats.ByEvent["fleet.round"] != 2 {
		t.Errorf("fleet.round events = %d, want 2", stats.ByEvent["fleet.round"])
	}
}

// The drift knob: a fleet whose deploys keep failing on one node keeps
// judging that node against its stale baseline. Exercised at the unit
// level in internal/health; here we just check the wiring reports a
// model version and EWMA accuracy for live nodes.
func TestFleetHealthAccuracyWiring(t *testing.T) {
	t.Parallel()
	cfg := testCfg(2)
	cfg.Health = health.NewTracker(health.SLO{})
	run(cfg, 24, []int{16})
	nodes := cfg.Health.Snapshot().Nodes
	if len(nodes) == 0 || nodes[0].Node != 0 {
		t.Fatal("node 0 missing from tracker")
	}
	s := nodes[0]
	if s.ModelVersion == 0 {
		t.Errorf("node 0 model version = 0, want deployed version")
	}
	if s.Accuracy <= 0 || s.Baseline <= 0 {
		t.Errorf("accuracy wiring: ewma=%g baseline=%g", s.Accuracy, s.Baseline)
	}
}

// Registry percentile state must survive a checkpoint/resume round
// trip: the resumed process answers the same quantiles the crashed one
// would have.
func TestCheckpointPreservesTelemetry(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	store, err := ckpt.Open(filepath.Join(dir, "ckpt"))
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	reg.Counter("fleet_rounds_total").Add(3)
	h := reg.Histogram("admit_s", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5} {
		h.Observe(v)
	}
	wantP50 := reg.Snapshot().Histograms["admit_s"].Quantile(0.5)
	w := reg.Window("win_s", []float64{1, 10}, 0, 0)
	w.Observe(5)

	cfg := testCfg(2)
	f := New(cfg)
	c := NewCheckpointer(store, f, 1)
	c.AttachRegistry(reg)
	if err := c.OnRound(f.Bootstrap(24)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rc, err := ResumeCheckpointer(store, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Fleet().Close()
	reg2 := telemetry.NewRegistry()
	// The window must exist before AttachRegistry for its mass to land.
	reg2.Window("win_s", []float64{1, 10}, 0, 0)
	rc.AttachRegistry(reg2)

	if got := reg2.Counter("fleet_rounds_total").Value(); got != 3 {
		t.Errorf("restored counter = %d, want 3", got)
	}
	h2 := reg2.Histogram("admit_s", nil)
	if h2.Count() != 4 {
		t.Fatalf("restored histogram count = %d, want 4", h2.Count())
	}
	if got := reg2.Snapshot().Histograms["admit_s"].Quantile(0.5); got != wantP50 {
		t.Errorf("restored p50 = %g, want %g", got, wantP50)
	}
	if got := reg2.Window("win_s", nil, 0, 0).Snapshot().Count; got != 1 {
		t.Errorf("restored window count = %d, want 1", got)
	}
}

// The health plane must coexist with lossy links and a straggler
// window: every node still ends with a verdict.
func TestFleetHealthEveryNodeVerdict(t *testing.T) {
	t.Parallel()
	cfg := testCfg(3)
	cfg.UplinkFaults = netsim.FaultConfig{DropProb: 0.3}
	cfg.Health = health.NewTracker(health.SLO{})
	run(cfg, 24, []int{16})
	snap := cfg.Health.Snapshot()
	if snap.Unknown != 0 {
		t.Fatalf("nodes without a verdict: %+v", snap)
	}
	for _, n := range snap.Nodes {
		if strings.TrimSpace(n.Verdict) == "" || n.Verdict == "unknown" {
			t.Errorf("node %d verdict = %q", n.Node, n.Verdict)
		}
	}
}
