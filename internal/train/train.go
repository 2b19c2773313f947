// Package train provides the shared supervised-training loop used by the
// Cloud-side experiments: minibatch cycling over a fixed sample set with
// SGD, plus evaluation helpers. It standardizes the hyperparameters that
// the reproduction's learning experiments (Table I, Figs. 5–7) share.
package train

import (
	"insitu/internal/dataset"
	"insitu/internal/nn"
	"insitu/internal/tensor"
)

// Config are training-loop hyperparameters. DefaultConfig returns the
// values validated to converge on the synthetic IoT data.
type Config struct {
	LR          float32
	Momentum    float32
	WeightDecay float32
	BatchSize   int
	Steps       int
}

// DefaultConfig returns the standard recipe (lr 0.01, momentum 0.9,
// weight decay 1e-4, batch 32).
func DefaultConfig(steps int) Config {
	return Config{LR: 0.01, Momentum: 0.9, WeightDecay: 1e-4, BatchSize: 32, Steps: steps}
}

// Result summarizes one training run.
type Result struct {
	Steps     int
	FinalLoss float64
	// LossCurve holds the loss at every recorded step (one entry per
	// Record interval; empty unless Record > 0 was set on Run).
	LossCurve []float64
}

// Run trains net on samples with minibatch cycling and returns the loss
// trajectory. record > 0 stores the loss every record steps. Step s
// trains on the BatchSize samples starting at s·BatchSize mod
// len(samples), wrapping around the end of the set. A frozen prefix
// (nn.Network.FrozenDepth) runs once per sample per call; see batches.
func Run(net *nn.Network, samples []dataset.Sample, cfg Config, record int) Result {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.BatchSize > len(samples) {
		cfg.BatchSize = len(samples)
	}
	opt := nn.NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay)
	res := Result{Steps: cfg.Steps}
	batch := batches(net, samples, cfg.BatchSize)
	for s := 0; s < cfg.Steps; s++ {
		x, labels := batch((s * cfg.BatchSize) % len(samples))
		loss, _ := net.TrainStepAbove(x, labels)
		opt.Step(net.Params())
		res.FinalLoss = loss
		if record > 0 && s%record == 0 {
			res.LossCurve = append(res.LossCurve, loss)
		}
	}
	return res
}

// batches returns Run's step input: the size samples from i0 on,
// wrapping around the end of the set, as net.TrainStepAbove takes them.
// Every sample's frozen-prefix output is computed once, size samples at
// a time, and a step gathers its rows from those: the prefix's training
// forward treats each sample on its own, so the rows are the ones a
// per-step forward would compute. With nothing frozen the rows are the
// samples themselves.
func batches(net *nn.Network, samples []dataset.Sample, size int) func(i0 int) (*tensor.Tensor, []int) {
	n := len(samples)
	feats := net.ForwardFrozenChunks(n, size, func(i0, i1 int) *tensor.Tensor {
		x, _ := dataset.Batch(samples[i0:i1])
		return x
	})
	return func(i0 int) (*tensor.Tensor, []int) {
		shape := feats.Shape()
		per := feats.Size() / shape[0]
		shape[0] = size
		x := tensor.New(shape...)
		labels := make([]int, size)
		for k := range labels {
			i := (i0 + k) % n
			copy(x.Data[k*per:(k+1)*per], feats.Data[i*per:(i+1)*per])
			labels[k] = samples[i].Label
		}
		return x, labels
	}
}

// Evaluate computes accuracy of net over samples in chunks (bounding peak
// memory for large evaluation sets).
func Evaluate(net *nn.Network, samples []dataset.Sample) float64 {
	const chunk = 64
	correct := 0
	for i := 0; i < len(samples); i += chunk {
		j := i + chunk
		if j > len(samples) {
			j = len(samples)
		}
		x, labels := dataset.Batch(samples[i:j])
		preds := net.Predict(x)
		for k, p := range preds {
			if p == labels[k] {
				correct++
			}
		}
	}
	return float64(correct) / float64(len(samples))
}

// Misclassified returns the subset of samples the network gets wrong —
// the "unrecognized class" of the paper's Fig. 7 Net-Err experiment
// (ground-truth version; the node-side diagnosis task approximates this
// without labels).
func Misclassified(net *nn.Network, samples []dataset.Sample) []dataset.Sample {
	const chunk = 64
	var out []dataset.Sample
	for i := 0; i < len(samples); i += chunk {
		j := i + chunk
		if j > len(samples) {
			j = len(samples)
		}
		x, labels := dataset.Batch(samples[i:j])
		preds := net.Predict(x)
		for k, p := range preds {
			if p != labels[k] {
				out = append(out, samples[i+k])
			}
		}
	}
	return out
}
