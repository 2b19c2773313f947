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

	"insitu/internal/core"
	"insitu/internal/dataset"
	"insitu/internal/deploy"
	"insitu/internal/device"
	"insitu/internal/diagnosis"
	"insitu/internal/fpgasim"
	"insitu/internal/gpusim"
	"insitu/internal/jigsaw"
	"insitu/internal/models"
	"insitu/internal/netsim"
	"insitu/internal/node"
	"insitu/internal/planner"
	"insitu/internal/tensor"
	"insitu/internal/train"
	"insitu/internal/transfer"
)

// Cloud-trains a model pair, ships it through a bundle FILE, and checks
// the deployed node model classifies exactly like the Cloud original.
func TestTrainShipDeployViaDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("training integration test")
	}
	const classes, perms = 4, 6
	world := dataset.NewGenerator(classes, 101)
	permSet := jigsaw.NewPermSet(perms, 102)
	jigNet := jigsaw.NewNet(perms, 103)
	trainer := jigsaw.NewTrainer(jigNet, permSet, 0.01, 104)
	pool := world.MixedSet(96, 0.5, 0.6)
	imgs := make([]*tensor.Tensor, len(pool))
	for i := range pool {
		imgs[i] = pool[i].Image
	}
	for step := 0; step < 60; step++ {
		i0 := (step * 16) % len(imgs)
		end := i0 + 16
		if end > len(imgs) {
			end = len(imgs)
		}
		trainer.Step(imgs[i0:end])
	}
	inference := models.TinyAlex(classes, 105)
	if _, err := transfer.FromUnsupervised(inference, jigNet, 3); err != nil {
		t.Fatal(err)
	}
	train.Run(inference, pool, train.DefaultConfig(60), 0)

	// Ship via disk.
	bundle, err := deploy.Pack(3, inference, jigNet, 0.37)
	if err != nil {
		t.Fatal(err)
	}
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

	// Node side: load and apply.
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
	d := diagnosis.NewJigsawDiagnoser(nodeJig, permSet, 3, 997)
	if err := received.ApplyAtomic(0, nodeInf, nodeJig, d); err != nil {
		t.Fatal(err)
	}
	if d.Threshold() != 0.37 {
		t.Fatalf("threshold %v", d.Threshold())
	}

	// Identical predictions on fresh captures.
	test := world.MixedSet(80, 0.5, 0.6)
	x, _ := dataset.Batch(test)
	cloudPred := inference.Predict(x)
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

// One full In-situ AI stage accounted end to end: meter bytes equal the
// per-report bytes, and the uplink energy follows the link model.
func TestUplinkAccountingConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("training integration test")
	}
	cfg := core.DefaultConfig(core.SystemInSituAI, 77)
	cfg.Classes = 4
	cfg.PermClasses = 6
	cfg.Link = netsim.LTE()
	sys := core.NewSystem(cfg)
	boot := sys.Bootstrap(64)
	r1 := sys.RunStage(48)
	m := sys.Meter()
	if m.Bytes != boot.UploadedBytes+r1.UploadedBytes {
		t.Fatalf("meter %d != reports %d", m.Bytes, boot.UploadedBytes+r1.UploadedBytes)
	}
	wantJ := cfg.Link.TransferEnergy(m.Bytes)
	if diff := m.Joules - wantJ; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("meter energy %v != link model %v", m.Joules, wantJ)
	}
	if int64(boot.Uploaded+r1.Uploaded) != m.Items {
		t.Fatalf("meter items %d != reports %d", m.Items, boot.Uploaded+r1.Uploaded)
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
