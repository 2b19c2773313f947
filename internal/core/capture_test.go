package core

import (
	"testing"

	"insitu/internal/deploy"
	"insitu/internal/diagnosis"
	"insitu/internal/netsim"
	"insitu/internal/tensor"
)

// countingDiagnoser counts every image it is asked to score, one at a
// time or in a batch.
type countingDiagnoser struct {
	diagnosis.BatchDiagnoser
	scored int
}

func (c *countingDiagnoser) Score(img *tensor.Tensor) float64 {
	c.scored++
	return c.BatchDiagnoser.Score(img)
}

func (c *countingDiagnoser) ScoreBatch(imgs []*tensor.Tensor, dst []float64) {
	c.scored += len(imgs)
	c.BatchDiagnoser.ScoreBatch(imgs, dst)
}

// A capture grades the diagnosis and, for the in-situ variants, picks
// the upload from the same scores: each captured image is scored exactly
// once, whichever variant runs.
func TestCaptureScoresOnce(t *testing.T) {
	const count = 40
	for _, kind := range []SystemKind{SystemCloudAll, SystemInSituAI} {
		n := NewNode(NodeConfig{
			Kind: kind, Classes: 4, PermClasses: 6, Probes: 3,
			Seed: 11, GenSeed: 11, InSituFrac: 0.6, Link: netsim.WiFi(),
		})
		n.SetSeverity(0.7)
		d := &countingDiagnoser{BatchDiagnoser: n.diag.(diagnosis.BatchDiagnoser)}
		n.diag = d
		n.Capture(count, false)
		if d.scored != count {
			t.Errorf("%v: %d scores for %d captured images, want one each", kind, d.scored, count)
		}
	}
}

// The node's meter sees every image a bootstrap capture moves, and a
// downlink that corrupts every delivery leaves the node on the model it
// had, with each redelivery's bytes and energy metered.
func TestNodeMetersUploadsAndRedeliveries(t *testing.T) {
	n := NewNode(NodeConfig{
		Kind: SystemInSituAI, Classes: 4, PermClasses: 6, Probes: 3,
		Seed: 11, GenSeed: 11, InSituFrac: 0.6, Link: netsim.WiFi(),
		Downlink: netsim.FaultConfig{Seed: 5, CorruptProb: 1}, DeployRetries: 2,
		EvalSamples: 16,
	})
	if up := n.Capture(48, true); up.Uploaded != 48 || n.meter.Items != 48 {
		t.Fatalf("bootstrap uploaded %d, meter items %d, want 48", up.Uploaded, n.meter.Items)
	}
	b, err := deploy.Pack(1, n.infer, n.jig, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	d := n.Deploy(b)
	if !d.Failed || d.Attempts != 2 || d.Version != 0 || n.version != 0 {
		t.Fatalf("deploy under 100%% corruption: %+v (node v%d)", d.Result, n.version)
	}
	if m := n.meter; m.Retransmits == 0 || m.RetransmitBytes == 0 || m.RetransmitJoules <= 0 {
		t.Fatalf("retransmissions not metered: %+v", m)
	}
}
