// Package diagnosis implements the node-side autonomous IoT data
// diagnosis task of In-situ AI (paper §III, Fig. 4): deciding, without
// labels, whether a freshly captured image is *recognized* (the deployed
// model handles it — process locally, discard) or *unrecognized*
// (valuable — upload to the Cloud for incremental training).
//
// The paper re-uses the unsupervised jigsaw network for this: an image
// the network can solve the context-prediction task on is well covered by
// the learned features; an image it cannot is out-of-distribution and
// therefore valuable. JigsawDiagnoser implements that.
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

// BatchDiagnoser is a Diagnoser that can score several images in one
// pass. Scores, and through it every scoring helper of this package,
// uses ScoreBatch when a diagnoser has it; the per-image Score of a
// batch diagnoser must equal a batch of one.
type BatchDiagnoser interface {
	Diagnoser
	// ScoreBatch writes the score of imgs[i] to dst[i].
	ScoreBatch(imgs []*tensor.Tensor, dst []float64)
}

// scoreTile is how many images one ScoreBatch call scores. A jigsaw
// diagnoser forwards scoreTile × Probes shuffled images — about 430
// patches — at once, which fills the eval-mode convolution panels
// without growing the activations past a few MB.
const scoreTile = 16

// Scores returns d's score of every sample, in order: in tiles of
// scoreTile images when d is a BatchDiagnoser, one Score call per image
// otherwise.
func Scores(d Diagnoser, samples []dataset.Sample) []float64 {
	scores := make([]float64, len(samples))
	bd, ok := d.(BatchDiagnoser)
	if !ok {
		for i, s := range samples {
			scores[i] = d.Score(s.Image)
		}
		return scores
	}
	imgs := make([]*tensor.Tensor, 0, scoreTile)
	for i := 0; i < len(samples); i += scoreTile {
		j := min(i+scoreTile, len(samples))
		imgs = imgs[:0]
		for _, s := range samples[i:j] {
			imgs = append(imgs, s.Image)
		}
		bd.ScoreBatch(imgs, scores[i:j])
	}
	return scores
}

// Split partitions samples into recognized and unrecognized sets.
func Split(d Diagnoser, samples []dataset.Sample) (recognized, unrecognized []dataset.Sample) {
	return partition(samples, Scores(d, samples), d.Threshold())
}

// partition splits samples by their scores against threshold, keeping
// their order.
func partition(samples []dataset.Sample, scores []float64, threshold float64) (rec, unrecognized []dataset.Sample) {
	for i, s := range samples {
		if recognized(scores[i], threshold) {
			rec = append(rec, s)
		} else {
			unrecognized = append(unrecognized, s)
		}
	}
	return rec, unrecognized
}

// recognized is the one upload predicate: a score at or above the
// threshold is recognized; anything else, NaN included, is uploaded.
func recognized(score, threshold float64) bool { return score >= threshold }

// Calibrate sets d's threshold so that approximately uploadFrac of the
// calibration samples fall below it (are uploaded). This is how a node
// tunes its diagnosis task to the uplink budget.
func Calibrate(d Diagnoser, samples []dataset.Sample, uploadFrac float64) {
	if len(samples) == 0 {
		return
	}
	scores := Scores(d, samples)
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

// Score implements Diagnoser: a batch of one.
func (d *JigsawDiagnoser) Score(img *tensor.Tensor) float64 {
	var s [1]float64
	d.ScoreBatch([]*tensor.Tensor{img}, s[:])
	return s[0]
}

// ScoreBatch implements BatchDiagnoser: every image is shuffled by each
// of the Probes permutations and all len(imgs) × Probes shuffles go
// through the network in one forward.
func (d *JigsawDiagnoser) ScoreBatch(imgs []*tensor.Tensor, dst []float64) {
	images := make([]*tensor.Tensor, 0, len(imgs)*d.Probes)
	labels := make([]int, 0, len(imgs)*d.Probes)
	for _, img := range imgs {
		for i := 0; i < d.Probes; i++ {
			images = append(images, img)
			// Deterministic probe schedule: spread probes across the set.
			labels = append(labels, (i*d.Set.Len())/d.Probes)
		}
	}
	x := jigsaw.Batch(images, labels, d.Set)
	probs := nn.Softmax(d.Net.Forward(x, false))
	for n := range imgs {
		var s float64
		for i := 0; i < d.Probes; i++ {
			r := n*d.Probes + i
			s += float64(probs.At(r, labels[r]))
		}
		dst[n] = s / float64(d.Probes)
	}
}

// Threshold implements Diagnoser.
func (d *JigsawDiagnoser) Threshold() float64 { return d.threshold }

// SetThreshold implements Diagnoser.
func (d *JigsawDiagnoser) SetThreshold(t float64) { d.threshold = t }

// Quality summarizes how well a diagnoser's "unrecognized" verdicts align
// with the inference network's actual mistakes on a labeled set.
type Quality struct {
	UploadFraction float64 // fraction of samples flagged unrecognized
	ErrorRecall    float64 // fraction of actual errors that were flagged
	Precision      float64 // fraction of flagged samples that were errors
}

// predictChunk is how many images one inference Predict call grades.
const predictChunk = 64

// Measure evaluates the diagnoser against ground truth: which samples the
// inference net actually misclassifies.
func Measure(d Diagnoser, inference *nn.Network, samples []dataset.Sample) Quality {
	q, _ := Assess(d, inference, samples)
	return q
}

// Assess is Measure and Split in one pass: it scores every sample once,
// grades the inference network in chunks of predictChunk images, and
// returns the diagnosis quality together with the unrecognized samples
// (in capture order).
func Assess(d Diagnoser, inference *nn.Network, samples []dataset.Sample) (Quality, []dataset.Sample) {
	if len(samples) == 0 {
		return Quality{}, nil
	}
	scores := Scores(d, samples)
	threshold := d.Threshold()
	flagged, errors, hit := 0, 0, 0
	for i := 0; i < len(samples); i += predictChunk {
		chunk := samples[i:min(i+predictChunk, len(samples))]
		x, labels := dataset.Batch(chunk)
		for k, p := range inference.Predict(x) {
			wrong := p != labels[k]
			up := !recognized(scores[i+k], threshold)
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
	}
	q := Quality{UploadFraction: float64(flagged) / float64(len(samples))}
	if errors > 0 {
		q.ErrorRecall = float64(hit) / float64(errors)
	}
	if flagged > 0 {
		q.Precision = float64(hit) / float64(flagged)
	}
	_, unrecognized := partition(samples, scores, threshold)
	return q, unrecognized
}
