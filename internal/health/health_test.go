package health

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"insitu/internal/telemetry"
)

// ok returns a clean-round sample for node n.
func ok(n, round int) Sample {
	return Sample{Node: n, Round: round, AdmitSeconds: 0.002, ModelVersion: 1, Accuracy: 0.9, AccuracyValid: true}
}

// dead returns a total-outage sample (no response at all).
func dead(n, round int) Sample {
	return Sample{Node: n, Round: round, AdmitSeconds: -1, UploadFailed: true, TimedOut: true}
}

// A node that never responds must go Unhealthy on its very first
// record (the first verdict after Unknown lands without hysteresis);
// a clean node must be Healthy.
func TestOutageNodeUnhealthyImmediately(t *testing.T) {
	tr := NewTracker(SLO{})
	if got := tr.Record(dead(0, 0)); got.Verdict != Unhealthy.String() {
		t.Fatalf("outage node verdict = %s, want unhealthy", got.Verdict)
	}
	if got := tr.Record(ok(1, 0)); got.Verdict != Healthy.String() {
		t.Fatalf("clean node verdict = %s, want healthy", got.Verdict)
	}
}

// One bad round in a healthy window must not flap the verdict: the
// failure rate stays under the degraded threshold and hysteresis
// requires a streak anyway.
func TestHysteresisAbsorbsOneBadRound(t *testing.T) {
	tr := NewTracker(SLO{})
	for r := 0; r < 8; r++ {
		tr.Record(ok(0, r))
	}
	tr.Record(Sample{Node: 0, Round: 8, AdmitSeconds: 0.002, UploadFailed: true})
	s, _ := nodeStatus(tr, 0)
	if s.Verdict != Healthy.String() {
		t.Fatalf("verdict after one bad round = %s, want healthy", s.Verdict)
	}
	if s.UploadFailures != 1 {
		t.Fatalf("upload failures = %d, want 1", s.UploadFailures)
	}
}

// A degraded stretch must need DownAfter consecutive rounds to
// demote, and recovery must need UpAfter consecutive clean rounds.
func TestHysteresisStreaks(t *testing.T) {
	slo := SLO{WindowRounds: 4, DownAfter: 2, UpAfter: 3}
	tr := NewTracker(slo)
	r := 0
	for ; r < 4; r++ {
		tr.Record(ok(0, r))
	}
	// Two failures in the 4-round window → rate 0.5 ≥ 0.25 (degraded
	// target) but < 0.75. First such round: streak 1 < DownAfter.
	tr.Record(Sample{Node: 0, Round: r, AdmitSeconds: 0.002, DeployFailed: true})
	r++
	if s, _ := nodeStatus(tr, 0); s.Verdict != Healthy.String() {
		t.Fatalf("verdict after first deploy failure = %s, want healthy (streak)", s.Verdict)
	}
	tr.Record(Sample{Node: 0, Round: r, AdmitSeconds: 0.002, DeployFailed: true})
	r++
	if s, _ := nodeStatus(tr, 0); s.Verdict != Degraded.String() {
		t.Fatalf("verdict after second deploy failure = %s, want degraded", s.Verdict)
	}
	// Recovery: the failures stay in the 4-round window for 3 more
	// rounds (targets remain degraded), the 4th clean round is the
	// first healthy target (streak 1), and UpAfter=3 means two more
	// clean rounds are needed before the verdict moves.
	for i := 0; i < 5; i++ {
		tr.Record(ok(0, r))
		r++
	}
	if s, _ := nodeStatus(tr, 0); s.Verdict != Degraded.String() {
		t.Fatalf("verdict mid-recovery = %s, want degraded (streak 2 < UpAfter 3)", s.Verdict)
	}
	tr.Record(ok(0, r))
	if s, _ := nodeStatus(tr, 0); s.Verdict != Healthy.String() {
		t.Fatalf("verdict after recovery = %s, want healthy", s.Verdict)
	}
}

// EWMA accuracy falling DriftDrop below the deploy-time baseline must
// degrade the node; a successful deploy of a new version re-baselines
// and clears the drift; DriftDisabled switches the monitor off.
func TestDriftMonitor(t *testing.T) {
	slo := SLO{DriftAlpha: 0.5, DriftDrop: 0.1, DriftMinRounds: 2}
	tr := NewTracker(slo)
	tr.Record(Sample{Node: 0, Round: 0, AdmitSeconds: 0.001, ModelVersion: 1, Accuracy: 0.9, AccuracyValid: true})
	for r := 1; r <= 4; r++ {
		tr.Record(Sample{Node: 0, Round: r, AdmitSeconds: 0.001, ModelVersion: 1, Accuracy: 0.5, AccuracyValid: true})
	}
	s, _ := nodeStatus(tr, 0)
	if !s.Drifting {
		t.Fatalf("node not drifting: drift=%g baseline=%g ewma=%g", s.Drift, s.Baseline, s.Accuracy)
	}
	if s.Verdict != Degraded.String() {
		t.Fatalf("drifting node verdict = %s, want degraded", s.Verdict)
	}
	// New model version deployed successfully → baseline resets to the
	// current accuracy, drift clears.
	tr.Record(Sample{Node: 0, Round: 5, AdmitSeconds: 0.001, ModelVersion: 2, Accuracy: 0.5, AccuracyValid: true})
	s, _ = nodeStatus(tr, 0)
	if s.Drifting || s.Drift != 0 {
		t.Fatalf("drift survived re-baseline: drift=%g drifting=%v", s.Drift, s.Drifting)
	}
	if s.Baseline != 0.5 {
		t.Fatalf("baseline after redeploy = %g, want 0.5", s.Baseline)
	}

	// Ablation: same inputs with the monitor disabled stay healthy.
	off := NewTracker(SLO{DriftAlpha: 0.5, DriftDrop: 0.1, DriftMinRounds: 2, DriftDisabled: true})
	off.Record(Sample{Node: 0, Round: 0, AdmitSeconds: 0.001, ModelVersion: 1, Accuracy: 0.9, AccuracyValid: true})
	for r := 1; r <= 4; r++ {
		off.Record(Sample{Node: 0, Round: r, AdmitSeconds: 0.001, ModelVersion: 1, Accuracy: 0.5, AccuracyValid: true})
	}
	s, _ = nodeStatus(off, 0)
	if s.Drifting || s.Verdict != Healthy.String() {
		t.Fatalf("disabled drift monitor still fired: verdict=%s drifting=%v", s.Verdict, s.Drifting)
	}
}

// A failed deploy must NOT re-baseline: the node keeps being judged
// against the accuracy of the model it was supposed to replace.
func TestFailedDeployKeepsBaseline(t *testing.T) {
	tr := NewTracker(SLO{})
	tr.Record(Sample{Node: 0, Round: 0, AdmitSeconds: 0.001, ModelVersion: 1, Accuracy: 0.9, AccuracyValid: true})
	tr.Record(Sample{Node: 0, Round: 1, AdmitSeconds: 0.001, ModelVersion: 2, DeployFailed: true, Accuracy: 0.6, AccuracyValid: true})
	s, _ := nodeStatus(tr, 0)
	if s.Baseline != 0.9 {
		t.Fatalf("baseline after failed deploy = %g, want 0.9", s.Baseline)
	}
	if s.ModelVersion != 1 {
		t.Fatalf("model version after failed deploy = %d, want 1", s.ModelVersion)
	}
}

// The p99 admission-latency SLO must degrade a slow node.
func TestLatencySLO(t *testing.T) {
	tr := NewTracker(SLO{AdmitP99Seconds: 0.01, DownAfter: 1})
	for r := 0; r < 4; r++ {
		tr.Record(Sample{Node: 0, Round: r, AdmitSeconds: 0.5, ModelVersion: 1})
	}
	s, _ := nodeStatus(tr, 0)
	if s.AdmitP99Seconds <= 0.01 {
		t.Fatalf("p99 = %g, want > 0.01", s.AdmitP99Seconds)
	}
	if s.Verdict != Degraded.String() {
		t.Fatalf("slow node verdict = %s, want degraded", s.Verdict)
	}
}

// Snapshot must count verdicts, sort nodes by id and report windowed
// percentiles.
func TestSnapshotCountsAndOrder(t *testing.T) {
	tr := NewTracker(SLO{})
	tr.Record(ok(2, 0))
	tr.Record(dead(0, 0))
	tr.Record(ok(1, 0))
	snap := tr.Snapshot()
	if snap.Healthy != 2 || snap.Unhealthy != 1 || snap.Degraded != 0 {
		t.Fatalf("counts = %+v", snap)
	}
	if snap.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", snap.Rounds)
	}
	for i, want := range []int{0, 1, 2} {
		if snap.Nodes[i].Node != want {
			t.Fatalf("nodes not sorted: %+v", snap.Nodes)
		}
	}
	if snap.Status() != "unhealthy" {
		t.Fatalf("status = %q, want unhealthy", snap.Status())
	}
	if p := snap.Nodes[1].AdmitP99Seconds; p <= 0 {
		t.Fatalf("healthy node p99 = %g, want > 0", p)
	}
}

// AttachTelemetry must export per-node gauges with sanitized labels and
// the aggregate admission window; nil tracker/registry must be inert.
func TestTelemetryExport(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := NewTracker(SLO{})
	tr.AttachTelemetry(reg)
	tr.Record(ok(0, 0))
	tr.Record(dead(1, 0))

	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`fleet_node_health{node="0"} 0`,
		`fleet_node_health{node="1"} 2`,
		`fleet_node_admit_p99_seconds{node="0"}`,
		`fleet_node_failure_rate{node="1"} 1`,
		"fleet_healthy_nodes 1",
		"fleet_unhealthy_nodes 1",
		"fleet_admit_latency_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom dump missing %q:\n%s", want, out)
		}
	}

	var nilTr *Tracker
	nilTr.AttachTelemetry(reg)
	if s := nilTr.Record(ok(0, 0)); s.Verdict != "unknown" {
		t.Fatalf("nil tracker Record = %+v", s)
	}
	if s := nilTr.Snapshot(); len(s.Nodes) != 0 {
		t.Fatal("nil tracker snapshot not empty")
	}
}

// /healthz and /fleetz must ride on the shared debug server: /fleetz
// parses back into FleetStatus, /healthz flips to 503 when a node is
// Unhealthy.
func TestHTTPEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := NewTracker(SLO{})
	tr.AttachTelemetry(reg)
	tr.Record(ok(0, 0))

	srv, err := telemetry.ServeDebug("127.0.0.1:0", reg, tr.Routes()...)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, []byte) {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, body
	}

	code, body := get("/healthz")
	if code != 200 {
		t.Fatalf("/healthz status = %d, want 200", code)
	}
	var hb healthzBody
	if err := json.Unmarshal(body, &hb); err != nil || hb.Status != "ok" {
		t.Fatalf("/healthz body = %s (err %v)", body, err)
	}

	code, body = get("/fleetz")
	if code != 200 {
		t.Fatalf("/fleetz status = %d, want 200", code)
	}
	var fs FleetStatus
	if err := json.Unmarshal(body, &fs); err != nil {
		t.Fatalf("/fleetz unparseable: %v\n%s", err, body)
	}
	if len(fs.Nodes) != 1 || fs.Nodes[0].Verdict != "healthy" {
		t.Fatalf("/fleetz = %+v", fs)
	}

	tr.Record(dead(1, 1))
	code, _ = get("/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz with unhealthy node = %d, want 503", code)
	}

	// The standard telemetry routes must still answer beside the extras.
	code, body = get("/metrics")
	if code != 200 || !strings.Contains(string(body), "fleet_node_health") {
		t.Fatalf("/metrics alongside extras: status %d body %s", code, body)
	}
}

// nodeStatus returns node id's entry of tr's snapshot.
func nodeStatus(tr *Tracker, id int) (NodeStatus, bool) {
	for _, s := range tr.Snapshot().Nodes {
		if s.Node == id {
			return s, true
		}
	}
	return NodeStatus{}, false
}
