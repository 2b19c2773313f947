package nn

import (
	"fmt"

	"insitu/internal/tensor"
)

// Layer is one differentiable stage of a network. Forward consumes a batch
// tensor whose first dimension is the batch size; Backward consumes the
// gradient of the loss with respect to the layer's output and returns the
// gradient with respect to its input, accumulating parameter gradients on
// the way. Layers are stateful between Forward and Backward (they cache
// activations) and are not safe for concurrent use.
type Layer interface {
	Name() string
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(dy *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// ReLU is the rectified-linear activation.
type ReLU struct {
	name string
	mask []bool
}

// NewReLU returns a ReLU layer with the given name.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (l *ReLU) Name() string { return l.name }

// Params implements Layer; ReLU has none.
func (l *ReLU) Params() []*Param { return nil }

// Forward implements Layer. Only a training forward records the mask
// Backward needs; an eval forward leaves it empty.
func (l *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		l.mask = l.mask[:0]
		// max(v, 0) is the training branch without the branch: -0 and
		// negatives become +0, NaN stays NaN (its sign bit may not).
		out := tensor.New(x.Shape()...)
		for i, v := range x.Data {
			out.Data[i] = max(v, 0)
		}
		return out
	}
	out := x.Clone()
	if cap(l.mask) < len(out.Data) {
		l.mask = make([]bool, len(out.Data))
	}
	l.mask = l.mask[:len(out.Data)]
	for i, v := range out.Data {
		if v <= 0 {
			out.Data[i] = 0
			l.mask[i] = false
		} else {
			l.mask[i] = true
		}
	}
	return out
}

// Backward implements Layer.
func (l *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if len(dy.Data) != len(l.mask) {
		panic("nn: ReLU backward before forward or size mismatch")
	}
	dx := dy.Clone()
	for i := range dx.Data {
		if !l.mask[i] {
			dx.Data[i] = 0
		}
	}
	return dx
}

// Flatten reshapes [B, ...] into [B, rest]. It is a pure view change.
type Flatten struct {
	name    string
	inShape []int
}

// NewFlatten returns a Flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name implements Layer.
func (l *Flatten) Name() string { return l.name }

// Params implements Layer.
func (l *Flatten) Params() []*Param { return nil }

// Forward implements Layer.
func (l *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.inShape = x.Shape()
	b := l.inShape[0]
	rest := x.Size() / b
	return x.Reshape(b, rest)
}

// Backward implements Layer.
func (l *Flatten) Backward(dy *tensor.Tensor) *tensor.Tensor {
	return dy.Reshape(l.inShape...)
}

// Dropout zeroes activations with probability Rate during training and
// scales survivors by 1/(1-Rate) (inverted dropout), so inference needs no
// rescaling.
type Dropout struct {
	name string
	Rate float32
	rng  *tensor.RNG
	mask []float32
}

// NewDropout returns a dropout layer with the given drop rate in [0,1).
func NewDropout(name string, rate float32, seed uint64) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: invalid dropout rate %v", rate))
	}
	return &Dropout{name: name, Rate: rate, rng: tensor.NewRNG(seed)}
}

// Name implements Layer.
func (l *Dropout) Name() string { return l.name }

// Params implements Layer.
func (l *Dropout) Params() []*Param { return nil }

// Forward implements Layer.
func (l *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || l.Rate == 0 {
		l.mask = nil
		return x
	}
	out := x.Clone()
	if cap(l.mask) < len(out.Data) {
		l.mask = make([]float32, len(out.Data))
	}
	l.mask = l.mask[:len(out.Data)]
	keep := 1 - l.Rate
	scale := 1 / keep
	for i := range out.Data {
		if l.rng.Float32() < l.Rate {
			l.mask[i] = 0
			out.Data[i] = 0
		} else {
			l.mask[i] = scale
			out.Data[i] *= scale
		}
	}
	return out
}

// Backward implements Layer.
func (l *Dropout) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if l.mask == nil {
		return dy
	}
	dx := dy.Clone()
	for i := range dx.Data {
		dx.Data[i] *= l.mask[i]
	}
	return dx
}
