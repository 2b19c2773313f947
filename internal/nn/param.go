// Package nn is a from-scratch convolutional neural network library: the
// training substrate that stands in for Caffe/cuDNN in this reproduction
// of In-situ AI (HPCA 2018). It provides the layers the paper's networks
// use (CONV, FCN, pooling, ReLU, dropout), softmax cross-entropy training
// with SGD+momentum, per-layer freezing for transfer learning, and model
// (de)serialization for shipping models between the simulated Cloud and
// IoT nodes.
package nn

import "insitu/internal/tensor"

// Param is one learnable tensor (weights or bias) together with its
// gradient accumulator. Frozen parameters keep accumulating nothing and
// are skipped by optimizers — this implements the paper's CONV-i weight
// locking for transfer learning (Fig. 6).
type Param struct {
	Name   string
	Value  *tensor.Tensor
	Grad   *tensor.Tensor
	Frozen bool
}

// NewParam allocates a parameter and a matching zero gradient.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{
		Name:  name,
		Value: value,
		Grad:  tensor.New(value.Shape()...),
	}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// CopyValueFrom copies the value tensor of src into p. Shapes must match.
func (p *Param) CopyValueFrom(src *Param) {
	if !p.Value.SameShape(src.Value) {
		panic("nn: CopyValueFrom shape mismatch for " + p.Name)
	}
	copy(p.Value.Data, src.Value.Data)
}
