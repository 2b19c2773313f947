// Package diagnosis implements the node-side autonomous IoT data
// diagnosis task of In-situ AI (paper §III, Fig. 4): deciding, without
// labels, whether a freshly captured image is *recognized* (the deployed
// model handles it — process locally, discard) or *unrecognized*
// (valuable — upload to the Cloud for incremental training).
//
// The paper re-uses the unsupervised jigsaw network for this: an image
// the network can solve the context-prediction task on is well covered by
// the learned features; an image it cannot is out-of-distribution and
// therefore valuable. JigsawDiagnoser implements that faithfully; a
// simpler ConfidenceDiagnoser (softmax confidence of the inference net)
// is provided as an ablation baseline.
package diagnosis

import (
	"sort"

	"insitu/internal/dataset"
	"insitu/internal/jigsaw"
	"insitu/internal/nn"
	"insitu/internal/tensor"
)

// Diagnoser scores images; higher scores mean "recognized". Images
// scoring below Threshold are uploaded.
type Diagnoser interface {
	// Score returns the recognition score of one image in [0, 1].
	Score(img *tensor.Tensor) float64
	// Threshold returns the current decision threshold.
	Threshold() float64
	// SetThreshold fixes the decision threshold.
	SetThreshold(t float64)
}

// Recognized reports whether d considers the image recognized.
func Recognized(d Diagnoser, img *tensor.Tensor) bool {
	return d.Score(img) >= d.Threshold()
}

// Split partitions samples into recognized and unrecognized sets.
func Split(d Diagnoser, samples []dataset.Sample) (recognized, unrecognized []dataset.Sample) {
	for _, s := range samples {
		if Recognized(d, s.Image) {
			recognized = append(recognized, s)
		} else {
			unrecognized = append(unrecognized, s)
		}
	}
	return recognized, unrecognized
}

// Calibrate sets d's threshold so that approximately uploadFrac of the
// calibration samples fall below it (are uploaded). This is how a node
// tunes its diagnosis task to the uplink budget.
func Calibrate(d Diagnoser, samples []dataset.Sample, uploadFrac float64) {
	if len(samples) == 0 {
		return
	}
	scores := make([]float64, len(samples))
	for i, s := range samples {
		scores[i] = d.Score(s.Image)
	}
	sort.Float64s(scores)
	k := int(uploadFrac * float64(len(scores)))
	if k >= len(scores) {
		k = len(scores) - 1
	}
	if k < 0 {
		k = 0
	}
	d.SetThreshold(scores[k])
}

// JigsawDiagnoser probes an image with several permutations of the
// unsupervised network's permutation set and scores it by the mean
// softmax probability assigned to the true permutation. It is the
// paper-faithful diagnosis task: the same weights, the same 9-patch
// input.
type JigsawDiagnoser struct {
	Net    *nn.Network
	Set    *jigsaw.PermSet
	Probes int

	threshold float64
}

// NewJigsawDiagnoser wraps a trained jigsaw network. probes is the number
// of permutations scored per image (more probes, smoother scores). The
// seed is ignored — the probe schedule is deterministic (see Score).
func NewJigsawDiagnoser(net *nn.Network, set *jigsaw.PermSet, probes int, _ uint64) *JigsawDiagnoser {
	if probes < 1 {
		probes = 1
	}
	return &JigsawDiagnoser{Net: net, Set: set, Probes: probes, threshold: 0.5}
}

// Score implements Diagnoser.
func (d *JigsawDiagnoser) Score(img *tensor.Tensor) float64 {
	images := make([]*tensor.Tensor, d.Probes)
	labels := make([]int, d.Probes)
	for i := 0; i < d.Probes; i++ {
		images[i] = img
		// Deterministic probe schedule: spread probes across the set.
		labels[i] = (i * d.Set.Len()) / d.Probes
	}
	x := jigsaw.Batch(images, labels, d.Set)
	logits := d.Net.Forward(x, false)
	probs := nn.Softmax(logits)
	var s float64
	for i := 0; i < d.Probes; i++ {
		s += float64(probs.At(i, labels[i]))
	}
	return s / float64(d.Probes)
}

// Threshold implements Diagnoser.
func (d *JigsawDiagnoser) Threshold() float64 { return d.threshold }

// SetThreshold implements Diagnoser.
func (d *JigsawDiagnoser) SetThreshold(t float64) { d.threshold = t }

// ConfidenceDiagnoser scores an image by the inference network's top
// softmax probability — the ablation baseline that needs no second
// network but cannot run when the inference task is saturated.
type ConfidenceDiagnoser struct {
	Net       *nn.Network
	threshold float64
}

// NewConfidenceDiagnoser wraps an inference network.
func NewConfidenceDiagnoser(net *nn.Network) *ConfidenceDiagnoser {
	return &ConfidenceDiagnoser{Net: net, threshold: 0.5}
}

// Score implements Diagnoser.
func (d *ConfidenceDiagnoser) Score(img *tensor.Tensor) float64 {
	sh := img.Shape()
	x := img.Reshape(append([]int{1}, sh...)...)
	return nn.TopProb(d.Net.Forward(x, false))[0]
}

// Threshold implements Diagnoser.
func (d *ConfidenceDiagnoser) Threshold() float64 { return d.threshold }

// SetThreshold implements Diagnoser.
func (d *ConfidenceDiagnoser) SetThreshold(t float64) { d.threshold = t }

// Quality summarizes how well a diagnoser's "unrecognized" verdicts align
// with the inference network's actual mistakes on a labeled set.
type Quality struct {
	UploadFraction float64 // fraction of samples flagged unrecognized
	ErrorRecall    float64 // fraction of actual errors that were flagged
	Precision      float64 // fraction of flagged samples that were errors
}

// Measure evaluates the diagnoser against ground truth: which samples the
// inference net actually misclassifies.
func Measure(d Diagnoser, inference *nn.Network, samples []dataset.Sample) Quality {
	if len(samples) == 0 {
		return Quality{}
	}
	flagged, errors, hit := 0, 0, 0
	for _, s := range samples {
		sh := s.Image.Shape()
		x := s.Image.Reshape(append([]int{1}, sh...)...)
		wrong := inference.Predict(x)[0] != s.Label
		up := !Recognized(d, s.Image)
		if wrong {
			errors++
		}
		if up {
			flagged++
		}
		if wrong && up {
			hit++
		}
	}
	q := Quality{UploadFraction: float64(flagged) / float64(len(samples))}
	if errors > 0 {
		q.ErrorRecall = float64(hit) / float64(errors)
	}
	if flagged > 0 {
		q.Precision = float64(hit) / float64(flagged)
	}
	return q
}
