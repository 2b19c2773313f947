package nn

import "insitu/internal/tensor"

// SGD is stochastic gradient descent with classical momentum and optional
// L2 weight decay — the optimizer the paper's Caffe setup would use.
type SGD struct {
	LR          float32
	Momentum    float32
	WeightDecay float32

	velocity map[*Param]*tensor.Tensor
}

// NewSGD constructs an optimizer.
func NewSGD(lr, momentum, weightDecay float32) *SGD {
	return &SGD{
		LR:          lr,
		Momentum:    momentum,
		WeightDecay: weightDecay,
		velocity:    make(map[*Param]*tensor.Tensor),
	}
}

// Step applies one update to every non-frozen parameter and zeroes its
// gradient. Frozen parameters are untouched (and their stale gradients
// cleared), implementing the paper's locked CONV layers.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		if p.Frozen {
			p.ZeroGrad()
			continue
		}
		v, ok := s.velocity[p]
		if !ok {
			v = tensor.New(p.Value.Shape()...)
			s.velocity[p] = v
		}
		g := p.Grad
		if s.WeightDecay != 0 {
			g.AddScaled(p.Value, s.WeightDecay)
		}
		// v = momentum*v - lr*g ; w += v
		for i := range v.Data {
			v.Data[i] = s.Momentum*v.Data[i] - s.LR*g.Data[i]
			p.Value.Data[i] += v.Data[i]
		}
		p.ZeroGrad()
	}
}
