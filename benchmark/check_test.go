package main

import (
	"errors"
	"math"
	"testing"

	"insitu/internal/dataset"
	"insitu/internal/fleet"
)

// goodReport is round 3 of a two-node fleet capped at 8 admitted samples.
func goodReport() fleet.RoundReport {
	node := func(id, uploaded, admitted int) fleet.NodeReport {
		return fleet.NodeReport{
			Node: id, Captured: 20, Uploaded: uploaded, UploadedBytes: int64(uploaded) * dataset.ImageBytes,
			Admitted: admitted, ModelVersion: 4, NodeAccuracy: 0.9,
		}
	}
	return fleet.RoundReport{
		Round: 3, Nodes: []fleet.NodeReport{node(0, 6, 6), node(1, 5, 2)},
		Uploaded: 11, Admitted: 8, Trained: 8, CloudVersion: 4, MeanAccuracy: 0.9,
	}
}

func TestCheckerAcceptsAGoodRound(t *testing.T) {
	c := &checker{w: workload{Nodes: 2, Cap: 8, AccuracyFloor: 0.5}}
	c.round(3, goodReport())
	c.checkpoint(100, nil)
	c.accuracy(0.9)
	if c.failed != 0 || c.attempted != 5 || c.failedFrac() != 0 {
		t.Errorf("failed %d of %d (%v), want 0 of 5", c.failed, c.attempted, c.problems)
	}
}

func TestEveryInvariantHasAFailingCase(t *testing.T) {
	cases := map[string]func(*fleet.RoundReport){
		"wrong round":           func(r *fleet.RoundReport) { r.Round = 2 },
		"missing node report":   func(r *fleet.RoundReport) { r.Nodes = r.Nodes[:1]; r.Admitted, r.Trained = 6, 6 },
		"cloud version":         func(r *fleet.RoundReport) { r.CloudVersion = 3 },
		"node model version":    func(r *fleet.RoundReport) { r.Nodes[1].ModelVersion = 3 },
		"timed out":             func(r *fleet.RoundReport) { r.Nodes[0].TimedOut = true },
		"disconnected":          func(r *fleet.RoundReport) { r.Nodes[0].Disconnected = true },
		"upload lost":           func(r *fleet.RoundReport) { r.Nodes[0].UploadFailed = true },
		"deploy failed":         func(r *fleet.RoundReport) { r.Nodes[1].DeployFailed = true },
		"stale model":           func(r *fleet.RoundReport) { r.Nodes[1].StaleModel = true },
		"uploaded bytes":        func(r *fleet.RoundReport) { r.Nodes[0].UploadedBytes-- },
		"admitted sum":          func(r *fleet.RoundReport) { r.Nodes[0].Admitted = 5 },
		"admitted past the cap": func(r *fleet.RoundReport) { r.Nodes[1].Admitted = 3; r.Admitted, r.Trained = 9, 9 },
		"trained != admitted":   func(r *fleet.RoundReport) { r.Trained = 7 },
		"accuracy not finite":   func(r *fleet.RoundReport) { r.MeanAccuracy = math.NaN() },
	}
	for name, breakIt := range cases {
		c := &checker{w: workload{Nodes: 2, Cap: 8}}
		rep := goodReport()
		breakIt(&rep)
		c.round(3, rep)
		if c.failed == 0 || c.failedFrac() <= 0 || len(c.problems) == 0 {
			t.Errorf("%s: not caught", name)
		}
	}

	c := &checker{w: workload{AccuracyFloor: 0.8}}
	c.checkpoint(0, nil)
	c.checkpoint(10, errors.New("disk full"))
	c.accuracy(0.79)
	c.accuracy(math.NaN())
	if c.failed != 4 {
		t.Errorf("empty checkpoint, checkpoint error, low and NaN accuracy: caught %d of 4 (%v)", c.failed, c.problems)
	}
}
