package core

import (
	"testing"

	"insitu/internal/diagnosis"
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
		sys := NewSystem(smallCfg(kind))
		d := &countingDiagnoser{BatchDiagnoser: sys.node.diag.(diagnosis.BatchDiagnoser)}
		sys.node.diag = d
		sys.node.Capture(count, false)
		if d.scored != count {
			t.Errorf("%v: %d scores for %d captured images, want one each", kind, d.scored, count)
		}
	}
}
