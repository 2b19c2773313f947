// Package integration ties the subsystems together the way a real
// deployment would: Cloud training → bundle file on disk → node runtime
// serving frames with the deployed model, and the planner's static
// choices checked against the dynamic simulators. These tests cross
// module boundaries on purpose — each one exercises a seam the unit
// tests cannot.
package integration

import (
	"os"
	"path/filepath"
	"testing"

	"insitu/internal/cloud"
	"insitu/internal/core"
	"insitu/internal/dataset"
	"insitu/internal/deploy"
	"insitu/internal/device"
	"insitu/internal/diagnosis"
	"insitu/internal/fleet"
	"insitu/internal/fpgasim"
	"insitu/internal/gpusim"
	"insitu/internal/jigsaw"
	"insitu/internal/models"
	"insitu/internal/netsim"
	"insitu/internal/node"
	"insitu/internal/planner"
	"insitu/internal/telemetry"
)

// Cloud-trains a model pair through the loop's own bootstrap
// (cloud.Server.Bootstrap + Pack, the path insitu-train takes), ships it
// through a bundle FILE, and checks the deployed node model classifies
// exactly like the Cloud original.
func TestTrainShipDeployViaDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("training integration test")
	}
	const classes, perms, seed = 4, 6, 101
	world := dataset.NewGenerator(classes, seed)
	server := cloud.NewServer(cloud.Config{
		Classes:       classes,
		PermClasses:   perms,
		SharedConvs:   3,
		Probes:        3,
		Seed:          seed,
		FullScaleSpec: models.AlexNet(),
		Cost:          cloud.NewCostModel(),
	})
	server.Bootstrap(world.MixedSet(96, 0.5, 0.6))
	bundle, err := server.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// The Cloud original: the packed weights on the server's own
	// architecture, before anything touches the disk.
	cloudInf, cloudJig := cloud.NewModels(classes, perms, seed)
	if err := bundle.ApplyAtomic(0, cloudInf, cloudJig, nil); err != nil {
		t.Fatal(err)
	}

	// Ship via disk.
	path := filepath.Join(t.TempDir(), "model.isdp")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := bundle.Encode(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Node side: load and apply onto nets built from other seeds.
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	received, err := deploy.Decode(rf)
	if err != nil {
		t.Fatal(err)
	}
	nodeInf := models.TinyAlex(classes, 999)
	nodeJig := jigsaw.NewNet(perms, 998)
	d := diagnosis.NewJigsawDiagnoser(nodeJig, cloud.NewPermSet(perms, seed), 3, 997)
	if err := received.ApplyAtomic(0, nodeInf, nodeJig, d); err != nil {
		t.Fatal(err)
	}
	if received.Version != 1 {
		t.Fatalf("version %d, want 1", received.Version)
	}
	if th := d.Threshold(); th != bundle.Threshold || th <= 0 || th >= 1 {
		t.Fatalf("threshold %v, want the calibrated %v in (0,1)", th, bundle.Threshold)
	}

	// Identical predictions on fresh captures.
	test := world.MixedSet(80, 0.5, 0.6)
	x, _ := dataset.Batch(test)
	cloudPred := cloudInf.Predict(x)
	nodePred := nodeInf.Predict(x)
	for i := range cloudPred {
		if cloudPred[i] != nodePred[i] {
			t.Fatalf("prediction %d differs after disk round trip", i)
		}
	}
}

// The planner's Single-running pick must actually hold up inside the
// event-driven node runtime: no deadline misses at a sustainable rate.
func TestPlannerChoiceSurvivesRuntime(t *testing.T) {
	sim := gpusim.New(device.TX1())
	inf := models.AlexNet()
	diag := models.DiagnosisSpec(inf, 100)
	const latencyReq = 0.25
	plan := planner.PlanSingleRunning(sim, inf, diag, latencyReq, 256)
	if !plan.InferenceFeasible {
		t.Fatal("plan infeasible")
	}
	rep := node.Run(node.Config{
		Sim:          sim,
		Inference:    inf,
		Diagnosis:    diag,
		FrameRate:    50,
		LatencyReq:   latencyReq,
		DaySeconds:   60,
		NightSeconds: 120,
	})
	if rep.MissRate() > 0.01 {
		t.Fatalf("planned node missed %.1f%% of deadlines", rep.MissRate()*100)
	}
	if rep.Backlog != 0 {
		t.Fatalf("diagnosis backlog %d", rep.Backlog)
	}
}

// The Co-running planner's latency promise is consistent with the
// pipeline model it plans over, for every architecture and requirement.
func TestCoRunPlannerConsistency(t *testing.T) {
	spec := device.VX690T()
	w := fpgasim.NewCoRunWorkload(models.AlexNet())
	for _, treq := range []float64{0.05, 0.1, 0.5} {
		plan, err := planner.PlanCoRunning(spec, w, 3, treq)
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Result.Feasible {
			continue
		}
		p, err := fpgasim.NewPipeline(spec, plan.Arch, w, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Latency(plan.Result.Bsize); got != plan.Result.Latency {
			t.Fatalf("planner latency %v != pipeline latency %v", plan.Result.Latency, got)
		}
	}
}

// One full In-situ AI stage on a one-node fleet accounted end to end:
// every report's bytes are its images at ImageBytes each, the fleet's
// per-node upload counters equal the reports' sums, and the reported
// uplink energy follows the link model.
func TestUplinkAccountingConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("training integration test")
	}
	reg := telemetry.NewRegistry()
	fleet.EnableTelemetry(reg)
	defer fleet.EnableTelemetry(nil)
	cfg := fleet.DefaultConfig(core.SystemInSituAI, 1, 77)
	cfg.Classes = 4
	cfg.PermClasses = 6
	cfg.Link = netsim.LTE()
	f := fleet.New(cfg)
	defer f.Close()
	var bytes int64
	var items int64
	var joules float64
	for _, rep := range []fleet.RoundReport{f.Bootstrap(64), f.RunRound(48)} {
		n := rep.Nodes[0]
		if n.UploadedBytes != int64(n.Uploaded)*dataset.ImageBytes {
			t.Fatalf("round %d: %d bytes for %d images", rep.Round, n.UploadedBytes, n.Uploaded)
		}
		bytes += n.UploadedBytes
		items += int64(n.Uploaded)
		joules += n.UplinkJoules
	}
	snap := reg.Snapshot()
	if got := snap.Counters[telemetry.Label("fleet_node_uploaded_bytes_total", "node", "0")]; got != bytes {
		t.Fatalf("uploaded-bytes counter %d != reports %d", got, bytes)
	}
	if got := snap.Counters[telemetry.Label("fleet_node_uploaded_images_total", "node", "0")]; got != items {
		t.Fatalf("uploaded-images counter %d != reports %d", got, items)
	}
	wantJ := cfg.Link.TransferEnergy(bytes)
	if diff := joules - wantJ; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("reported uplink energy %v != link model %v", joules, wantJ)
	}
}

// The diagnosis task deployed by the closed loop is the same network the
// node-runtime cost model assumes: 9 patch passes per probe. Check the
// node's diagnoser really consumes 9-tile inputs built by the jigsaw
// batcher.
func TestDiagnoserConsumesJigsawLayout(t *testing.T) {
	set := jigsaw.NewPermSet(6, 1)
	net := jigsaw.NewNet(6, 2)
	d := diagnosis.NewJigsawDiagnoser(net, set, 2, 3)
	g := dataset.NewGenerator(4, 4)
	s := g.Ideal()
	// Score runs the net over probes×9 tiles; any layout mismatch panics
	// inside the network's shape checks, so reaching here with a sane
	// score is the assertion.
	if sc := d.Score(s.Image); sc < 0 || sc > 1 {
		t.Fatalf("score %v", sc)
	}
}
