package nn

import (
	"fmt"

	"insitu/internal/tensor"
)

// Dense is a fully-connected (FCN in the paper's terminology) layer:
// y = x·Wᵀ + b over batched [B, In] inputs.
type Dense struct {
	name string
	In   int
	Out  int

	W *Param // [Out, In]
	B *Param // [Out]

	lastX *tensor.Tensor
	dx    *tensor.Tensor // input-gradient buffer, reused across steps
}

// NewDense constructs a fully-connected layer with He-initialized weights.
func NewDense(name string, in, out int, rng *tensor.RNG) *Dense {
	w := tensor.New(out, in)
	w.FillHe(rng, in)
	return &Dense{
		name: name,
		In:   in,
		Out:  out,
		W:    NewParam(name+".W", w),
		B:    NewParam(name+".b", tensor.New(out)),
	}
}

// Name implements Layer.
func (l *Dense) Name() string { return l.name }

// Params implements Layer.
func (l *Dense) Params() []*Param { return []*Param{l.W, l.B} }

// Forward implements Layer.
func (l *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: dense %q input shape %v, want [B %d]", l.name, x.Shape(), l.In))
	}
	if train {
		l.lastX = x
	} else {
		l.lastX = nil
	}
	// y = x · Wᵀ  ([B,In] × [In,Out])
	y := tensor.MatMulTransB(x, l.W.Value)
	batch := x.Dim(0)
	for b := 0; b < batch; b++ {
		row := y.Data[b*l.Out : (b+1)*l.Out]
		for j := range row {
			row[j] += l.B.Value.Data[j]
		}
	}
	return y
}

// Backward implements Layer.
func (l *Dense) Backward(dy *tensor.Tensor) *tensor.Tensor {
	l.backwardParams(dy)
	// dx = dy · W  ([B,Out] × [Out,In]), written into the reusable
	// buffer. The previous step's dx is no longer referenced by then:
	// it was consumed by the preceding layer's backward pass.
	batch := dy.Dim(0)
	if l.dx == nil || l.dx.Dim(0) != batch {
		l.dx = tensor.New(batch, l.In)
	}
	tensor.MatMulInto(l.dx, dy, l.W.Value)
	return l.dx
}

// backwardParams adds the batch's weight and bias gradients to W.Grad
// and B.Grad, unless W is frozen; Backward is this plus the input
// gradient.
func (l *Dense) backwardParams(dy *tensor.Tensor) {
	if l.lastX == nil {
		panic("nn: dense backward before forward(train=true)")
	}
	if l.W.Frozen {
		return
	}
	// dW += dyᵀ · x  ([Out,B] × [B,In]), accumulated straight into the
	// parameter gradient — no intermediate tensor.
	tensor.MatMulTransAInto(l.W.Grad, dy, l.lastX, true)
	for b := 0; b < dy.Dim(0); b++ {
		row := dy.Data[b*l.Out : (b+1)*l.Out]
		for j, v := range row {
			l.B.Grad.Data[j] += v
		}
	}
}
