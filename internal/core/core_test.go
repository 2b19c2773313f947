package core_test

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"insitu/internal/core"
	"insitu/internal/experiments"
	"insitu/internal/fleet"
	"insitu/internal/netsim"
	"insitu/internal/telemetry"
)

// The closed loop's properties, asserted on the one driver that runs
// it: a one-node fleet per Fig. 24 variant.

// smallCfg shrinks the workload so one closed loop runs quickly.
func smallCfg(kind core.SystemKind) fleet.Config {
	cfg := fleet.DefaultConfig(kind, 1, 11)
	cfg.Classes = 4
	cfg.PermClasses = 6
	return cfg
}

// run drives a one-node fleet through a bootstrap and the given rounds.
func run(cfg fleet.Config, boot int, rounds ...int) []fleet.RoundReport {
	f := fleet.New(cfg)
	defer f.Close()
	reps := []fleet.RoundReport{f.Bootstrap(boot)}
	for _, n := range rounds {
		reps = append(reps, f.RunRound(n))
	}
	return reps
}

// The comparison fixture is expensive (it trains 4 variants through 3
// stages), so it is built once and shared by every test that reads it.
var (
	cmpOnce sync.Once
	cmpFix  *experiments.Comparison
)

func comparison(t *testing.T) *experiments.Comparison {
	if testing.Short() {
		t.Skip("closed-loop training fixture")
	}
	cmpOnce.Do(func() {
		cmpFix = experiments.RunSystems(experiments.SystemScale{
			Bootstrap: 96, Stages: []int{64, 96}, Classes: 4, Perms: 6, Seed: 13,
		})
	})
	return cmpFix
}

// node returns variant k's node report at a stage (0 = bootstrap).
func node(cmp *experiments.Comparison, k core.SystemKind, stage int) fleet.NodeReport {
	return cmp.Reports[k][stage].Nodes[0]
}

func TestSystemKindPredicates(t *testing.T) {
	if core.SystemCloudAll.UsesNodeDiagnosis() || core.SystemCloudDiagnosis.UsesNodeDiagnosis() {
		t.Fatal("cloud variants must not use node diagnosis")
	}
	if !core.SystemInSituDiagnosis.UsesNodeDiagnosis() || !core.SystemInSituAI.UsesNodeDiagnosis() {
		t.Fatal("in-situ variants must use node diagnosis")
	}
	if core.SystemInSituDiagnosis.UsesWeightSharing() || !core.SystemInSituAI.UsesWeightSharing() {
		t.Fatal("only variant d uses weight sharing")
	}
	for _, k := range core.AllKinds() {
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
}

func TestBootstrapUploadsEverything(t *testing.T) {
	cmp := comparison(t)
	for _, k := range core.AllKinds() {
		rep := cmp.Reports[k][0]
		n := rep.Nodes[0]
		if n.Uploaded != 96 || n.Captured != 96 || n.UploadFrac != 1 {
			t.Fatalf("%v bootstrap upload = %d of %d (frac %v)", k, n.Uploaded, n.Captured, n.UploadFrac)
		}
		if rep.CloudCost.Seconds <= 0 {
			t.Fatalf("%v: bootstrap must cost Cloud time", k)
		}
		if n.NodeAccuracy <= 1.0/4 {
			t.Fatalf("%v: bootstrap accuracy %v not above chance", k, n.NodeAccuracy)
		}
	}
}

func TestRunStageBeforeBootstrapPanics(t *testing.T) {
	f := fleet.New(smallCfg(core.SystemInSituAI))
	defer f.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("RunRound before Bootstrap should panic")
		}
	}()
	f.RunRound(32)
}

func TestDoubleBootstrapPanics(t *testing.T) {
	f := fleet.New(smallCfg(core.SystemCloudAll))
	defer f.Close()
	f.Bootstrap(48)
	defer func() {
		if recover() == nil {
			t.Fatal("second Bootstrap should panic")
		}
	}()
	f.Bootstrap(48)
}

func TestCloudAllUploadsEverything(t *testing.T) {
	cmp := comparison(t)
	rep := cmp.Reports[core.SystemCloudAll][1]
	n := rep.Nodes[0]
	if n.Uploaded != 64 || n.UploadFrac != 1 {
		t.Fatalf("variant a must move everything: %d (%v)", n.Uploaded, n.UploadFrac)
	}
	if rep.Trained != 64 {
		t.Fatalf("variant a trains on everything: %d", rep.Trained)
	}
}

func TestInSituVariantsUploadLess(t *testing.T) {
	cmp := comparison(t)
	for _, k := range []core.SystemKind{core.SystemInSituDiagnosis, core.SystemInSituAI} {
		n := node(cmp, k, 2)
		if n.Uploaded >= n.Captured {
			t.Fatalf("%v uploaded %d of %d: diagnosis filtered nothing", k, n.Uploaded, n.Captured)
		}
	}
}

func TestCloudDiagnosisMovesAllTrainsLess(t *testing.T) {
	cmp := comparison(t)
	rep := cmp.Reports[core.SystemCloudDiagnosis][2]
	n := rep.Nodes[0]
	if n.Uploaded != n.Captured {
		t.Fatalf("variant b moves everything: %d of %d", n.Uploaded, n.Captured)
	}
	if rep.Trained >= n.Captured {
		t.Fatalf("variant b should train on a filtered subset: %d of %d", rep.Trained, n.Captured)
	}
}

func TestWeightSharingCutsPerSampleCost(t *testing.T) {
	cmp := comparison(t)
	repC := cmp.Reports[core.SystemInSituDiagnosis][1]
	repD := cmp.Reports[core.SystemInSituAI][1]
	if repC.Trained == 0 || repD.Trained == 0 {
		t.Skip("no training happened at stage 1")
	}
	perSampleC := repC.CloudCost.Seconds / float64(repC.Trained)
	perSampleD := repD.CloudCost.Seconds / float64(repD.Trained)
	if perSampleD >= perSampleC {
		t.Fatalf("weight sharing did not cut per-sample cost: %v vs %v", perSampleD, perSampleC)
	}
}

func TestAccuracyImprovesOverStages(t *testing.T) {
	cmp := comparison(t)
	first, last := node(cmp, core.SystemInSituAI, 0), node(cmp, core.SystemInSituAI, 2)
	if last.NodeAccuracy <= first.NodeAccuracy {
		t.Fatalf("incremental updates did not improve accuracy: %v -> %v",
			first.NodeAccuracy, last.NodeAccuracy)
	}
}

func TestUploadFractionDeclines(t *testing.T) {
	// Table II's core dynamic: the in-situ upload fraction falls from the
	// bootstrap's 1.0 as the model improves.
	cmp := comparison(t)
	if last := node(cmp, core.SystemInSituAI, 2); last.UploadFrac >= 0.9 {
		t.Fatalf("upload fraction did not decline: %v", last.UploadFrac)
	}
}

func TestComparisonInvariants(t *testing.T) {
	cmp := comparison(t)
	// Every variant has bootstrap + 2 stages.
	for _, k := range core.AllKinds() {
		if len(cmp.Reports[k]) != 3 {
			t.Fatalf("%v has %d reports", k, len(cmp.Reports[k]))
		}
	}
	// Variant (a) is the normalization baseline: ratio 1 everywhere; (b)
	// moves everything too.
	for stage := 0; stage < 3; stage++ {
		if r := cmp.DataMovementRatio(core.SystemCloudAll, stage); r != 1 {
			t.Fatalf("baseline ratio = %v at stage %d", r, stage)
		}
		if r := cmp.DataMovementRatio(core.SystemCloudDiagnosis, stage); r != 1 {
			t.Fatalf("variant b ratio = %v at stage %d (moves everything)", r, stage)
		}
	}
	// In-situ variants move strictly less after bootstrap.
	for _, k := range []core.SystemKind{core.SystemInSituDiagnosis, core.SystemInSituAI} {
		r := cmp.DataMovementRatio(k, 2)
		if r <= 0 || r >= 1 {
			t.Fatalf("%v stage-2 movement ratio = %v, want in (0,1)", k, r)
		}
	}
	// Headline claims: data movement and energy savings positive for the
	// In-situ AI variant.
	if s := cmp.DataMovementSaving(core.SystemInSituAI); s <= 0 || s >= 1 {
		t.Fatalf("data movement saving = %v", s)
	}
	if s := cmp.EnergySaving(core.SystemInSituAI); s <= 0 || s >= 1 {
		t.Fatalf("energy saving = %v", s)
	}
	// Cumulative Cloud cost: every filtered variant beats (a); the
	// In-situ AI speedup exceeds 1.
	base := cmp.CumulativeCloudCost(core.SystemCloudAll).Seconds
	for _, k := range []core.SystemKind{core.SystemCloudDiagnosis, core.SystemInSituDiagnosis, core.SystemInSituAI} {
		if own := cmp.CumulativeCloudCost(k).Seconds; own >= base {
			t.Fatalf("%v cumulative cost %v not below baseline %v", k, own, base)
		}
	}
	if sp := cmp.UpdateSpeedup(core.SystemInSituAI, 2); sp <= 1 {
		t.Fatalf("update speedup = %v", sp)
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := fleet.DefaultConfig(core.SystemInSituAI, 1, 1)
	if cfg.Kind != core.SystemInSituAI || cfg.Classes < 2 || cfg.PermClasses < 2 {
		t.Fatalf("bad default config %+v", cfg)
	}
	if cfg.Link != netsim.WiFi() {
		t.Fatal("default link should be WiFi")
	}
}

func TestCalibTargetBounds(t *testing.T) {
	if got := core.CalibTarget(0); got != 0.05 {
		t.Fatalf("floor = %v", got)
	}
	if got := core.CalibTarget(1); got != 1 {
		t.Fatalf("cap = %v", got)
	}
	if got := core.CalibTarget(0.5); got <= 0.5 || got > 0.7 {
		t.Fatalf("mid = %v", got)
	}
}

func TestDeploymentTracking(t *testing.T) {
	cmp := comparison(t)
	for stage, rep := range cmp.Reports[core.SystemInSituAI] {
		n := rep.Nodes[0]
		want := uint32(stage + 1)
		if n.ModelVersion != want || rep.CloudVersion != want {
			t.Fatalf("stage %d: node v%d, cloud v%d, want v%d", stage, n.ModelVersion, rep.CloudVersion, want)
		}
		if n.DeployAttempts != 1 || n.DeployFailed || n.StaleModel {
			t.Fatalf("stage %d: clean-link deploy %+v", stage, n)
		}
	}
}

// TestDeployFaultToleranceEndToEnd is the hardening acceptance test: a
// downlink outage window swallows every delivery of the bootstrap and
// the first stage. Nothing may panic; the node must keep serving the
// model version it already had (graceful degradation); the reports must
// show the retransmission bytes and backoff; and once the window closes
// the closed loop must reconverge onto the Cloud's latest bundle.
func TestDeployFaultToleranceEndToEnd(t *testing.T) {
	cfg := smallCfg(core.SystemInSituAI)
	cfg.DownlinkFaults = netsim.FaultConfig{Outages: []netsim.Outage{{Start: 0, End: 4}}}
	cfg.DeployRetries = 2
	reps := run(cfg, 48, 32, 32)

	// Bootstrap: both delivery attempts fall in the outage.
	boot := reps[0].Nodes[0]
	if !boot.DeployFailed || !boot.StaleModel {
		t.Fatalf("bootstrap deploy under outage: %+v", boot)
	}
	if boot.DeployAttempts != 2 {
		t.Fatalf("attempts = %d, want the configured retry bound", boot.DeployAttempts)
	}
	if boot.ModelVersion != 0 || reps[0].CloudVersion != 1 {
		t.Fatalf("node v%d, cloud v%d after a failed bootstrap deploy", boot.ModelVersion, reps[0].CloudVersion)
	}

	// A stage under the same outage: still no panic, still serving the
	// previous (here: initial) model version, redeliveries accounted.
	rep := reps[1].Nodes[0]
	if !rep.DeployFailed || !rep.StaleModel || rep.ModelVersion != 0 {
		t.Fatalf("stage under outage: %+v", rep)
	}
	if rep.RetransmitBytes == 0 || rep.DeployBackoffSeconds <= 0 {
		t.Fatalf("stage retry accounting missing: %+v", rep)
	}

	// The window has closed: the next stage's bundle must land and the
	// node must jump to the Cloud's latest version (reconvergence).
	healed := reps[2].Nodes[0]
	if healed.DeployFailed || healed.StaleModel {
		t.Fatalf("healed link still failing: %+v", healed)
	}
	if healed.DeployAttempts != 1 {
		t.Fatalf("healed attempts = %d", healed.DeployAttempts)
	}
	if healed.ModelVersion != reps[2].CloudVersion || healed.ModelVersion != 3 {
		t.Fatalf("node did not reconverge: node v%d, cloud v%d", healed.ModelVersion, reps[2].CloudVersion)
	}
}

// TestDeployRetrySucceedsUnderPartialLoss checks the bounded-retry path:
// with a 50% drop rate and enough attempts, deploys eventually land and
// every redelivery is accounted.
func TestDeployRetrySucceedsUnderPartialLoss(t *testing.T) {
	// Seed 3's downlink dice drop the first bootstrap delivery, so the
	// retry path runs (the previous test's seed 11 happens to drop none).
	cfg := smallCfg(core.SystemInSituAI)
	cfg.Seed = 3
	cfg.DownlinkFaults = netsim.FaultConfig{DropProb: 0.5}
	cfg.DeployRetries = 8
	reps := run(cfg, 48, 32)
	attempts := 0
	var retransmit int64
	for _, rep := range reps {
		n := rep.Nodes[0]
		if n.DeployFailed {
			t.Fatalf("8 retries at 50%% loss should land: %+v", n)
		}
		attempts += n.DeployAttempts
		retransmit += n.RetransmitBytes
	}
	if v := reps[1].Nodes[0].ModelVersion; v != 2 {
		t.Fatalf("node version = %d", v)
	}
	if attempts <= 2 {
		t.Fatalf("%d attempts for 2 deploys: the lossy link dropped nothing at 50%%", attempts)
	}
	if retransmit == 0 {
		t.Fatalf("%d attempts but no retransmissions accounted", attempts)
	}
}

func TestUploadFracStaysInUnitInterval(t *testing.T) {
	// Regression: the calibration set used to inflate the upload
	// numerator without entering the captured denominator, pushing the
	// in-situ variants' UploadFrac above 1 on tiny stages.
	sizes := []int{8, 16, 32}
	reps := run(smallCfg(core.SystemInSituAI), 48, sizes...)
	for i, n := range sizes {
		rep := reps[i+1].Nodes[0]
		if rep.UploadFrac < 0 || rep.UploadFrac > 1 {
			t.Fatalf("stage of %d: UploadFrac = %v outside [0,1] (%d uploaded, %d captured, %d calib)",
				n, rep.UploadFrac, rep.Uploaded, rep.Captured, rep.CalibUploaded)
		}
		if rep.CalibUploaded == 0 || rep.Captured <= n {
			t.Fatalf("calib traffic not accounted: %+v", rep)
		}
	}
}

// One closed-loop cycle (bootstrap + stage) with telemetry and tracing
// on must produce a valid JSONL trace covering round, upload and deploy
// events, and move the loop counters by exactly the reported amounts.
func TestClosedLoopTraceAndCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	fleet.EnableTelemetry(reg)
	defer fleet.EnableTelemetry(nil)

	var buf bytes.Buffer
	cfg := smallCfg(core.SystemInSituAI)
	cfg.Trace = telemetry.NewTracer(&buf)
	reps := run(cfg, 48, 32)
	if err := cfg.Trace.Flush(); err != nil {
		t.Fatal(err)
	}

	stats, err := telemetry.ValidateTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("trace invalid: %v\n%s", err, buf.String())
	}
	for _, ev := range []string{"fleet.round", "fleet.upload", "fleet.deploy"} {
		if stats.ByEvent[ev] != 2 {
			t.Errorf("%s events = %d, want 2 (bootstrap + stage)", ev, stats.ByEvent[ev])
		}
	}

	snap := reg.Snapshot()
	if got := snap.Counters["fleet_rounds_total"]; got != 2 {
		t.Errorf("fleet_rounds_total = %d, want 2", got)
	}
	var uploaded, upBytes int64
	for _, rep := range reps {
		uploaded += int64(rep.Uploaded)
		upBytes += rep.Nodes[0].UploadedBytes
	}
	if got := snap.Counters["fleet_uploaded_images_total"]; got != uploaded {
		t.Errorf("fleet_uploaded_images_total = %d, want %d", got, uploaded)
	}
	if got := snap.Counters[telemetry.Label("fleet_node_uploaded_bytes_total", "node", "0")]; got != upBytes {
		t.Errorf("node 0 uploaded bytes = %d, want %d", got, upBytes)
	}
	last := reps[len(reps)-1]
	if snap.Gauges["fleet_mean_accuracy"] != last.MeanAccuracy {
		t.Errorf("fleet_mean_accuracy = %g, want %g", snap.Gauges["fleet_mean_accuracy"], last.MeanAccuracy)
	}
	if snap.Gauges["fleet_retrain_seconds_total"] <= 0 {
		t.Error("fleet_retrain_seconds_total did not accumulate")
	}

	// Telemetry observes the loop, it never steers it: the same run with
	// neither registry nor tracer reports the same bytes.
	fleet.EnableTelemetry(nil)
	cfg.Trace = nil
	if a, b := reportsJSON(t, reps), reportsJSON(t, run(cfg, 48, 32)); !bytes.Equal(a, b) {
		t.Fatalf("telemetry changed the reports:\n%s\n---\n%s", a, b)
	}
}

// With no registry and no tracer attached, the loop must run as
// normal (nil-safe default): the shared fixture is built that way.
func TestClosedLoopTelemetryDisabled(t *testing.T) {
	cmp := comparison(t)
	if n := node(cmp, core.SystemInSituDiagnosis, 0); n.Uploaded != 96 {
		t.Fatalf("bootstrap uploaded = %d", n.Uploaded)
	}
}

func reportsJSON(t *testing.T, reps []fleet.RoundReport) []byte {
	t.Helper()
	b, err := json.Marshal(reps)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
