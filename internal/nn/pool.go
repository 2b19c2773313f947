package nn

import (
	"fmt"
	"math"

	"insitu/internal/tensor"
)

// MaxPool2D is a max-pooling layer over batched [B, C, H, W] tensors with
// a square window and stride.
type MaxPool2D struct {
	name   string
	Window int
	Stride int

	inShape []int
	argmax  []int // flat input index of the winner per output element
}

// NewMaxPool2D constructs a max-pooling layer.
func NewMaxPool2D(name string, window, stride int) *MaxPool2D {
	if window < 1 || stride < 1 {
		panic("nn: invalid pooling window/stride")
	}
	return &MaxPool2D{name: name, Window: window, Stride: stride}
}

// Name implements Layer.
func (l *MaxPool2D) Name() string { return l.name }

// Params implements Layer.
func (l *MaxPool2D) Params() []*Param { return nil }

// OutDims returns the pooled height and width for an input of h×w.
func (l *MaxPool2D) OutDims(h, w int) (int, int) {
	return (h-l.Window)/l.Stride + 1, (w-l.Window)/l.Stride + 1
}

// Forward implements Layer. Only a training forward records the argmax
// Backward needs; an eval forward leaves it empty.
func (l *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: pool %q wants rank-4 input, got %v", l.name, x.Shape()))
	}
	b, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := l.OutDims(h, w)
	if oh < 1 || ow < 1 {
		panic(fmt.Sprintf("nn: pool %q output empty for input %v", l.name, x.Shape()))
	}
	out := tensor.New(b, c, oh, ow)
	l.argmax = l.argmax[:0]
	if train {
		l.inShape = x.Shape()
		if cap(l.argmax) < out.Size() {
			l.argmax = make([]int, out.Size())
		}
		l.argmax = l.argmax[:out.Size()]
	}

	oi := 0
	for bi := 0; bi < b; bi++ {
		for ci := 0; ci < c; ci++ {
			plane := (bi*c + ci) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := float32(math.Inf(-1))
					bestIdx := -1
					for ky := 0; ky < l.Window; ky++ {
						iy := oy*l.Stride + ky
						rowBase := plane + iy*w
						for kx := 0; kx < l.Window; kx++ {
							ix := ox*l.Stride + kx
							v := x.Data[rowBase+ix]
							if v > best {
								best = v
								bestIdx = rowBase + ix
							}
						}
					}
					out.Data[oi] = best
					if train {
						l.argmax[oi] = bestIdx
					}
					oi++
				}
			}
		}
	}
	return out
}

// forwardFrozen is the training forward without the argmax, which is
// the eval forward.
func (l *MaxPool2D) forwardFrozen(x *tensor.Tensor) *tensor.Tensor {
	l.argmax, l.inShape = nil, nil
	return l.Forward(x, false)
}

// Backward implements Layer: routes each output gradient to the input
// element that won the max.
func (l *MaxPool2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if len(l.argmax) != dy.Size() {
		panic("nn: pool backward before forward or size mismatch")
	}
	dx := tensor.New(l.inShape...)
	for i, v := range dy.Data {
		dx.Data[l.argmax[i]] += v
	}
	return dx
}
