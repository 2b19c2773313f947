package nn

import (
	"math"
	"testing"

	"insitu/internal/tensor"
)

// numericGrad estimates d(loss)/d(theta[i]) for a scalar loss function by
// central differences.
func numericGrad(theta *tensor.Tensor, i int, loss func() float64) float64 {
	const eps = 2e-3
	orig := theta.Data[i]
	theta.Data[i] = orig + eps
	lp := loss()
	theta.Data[i] = orig - eps
	lm := loss()
	theta.Data[i] = orig
	return (lp - lm) / (2 * eps)
}

// checkGrads runs a TrainStep to fill analytic gradients, then compares a
// sample of them against numeric gradients.
func checkGrads(t *testing.T, net *Network, x *tensor.Tensor, labels []int, tol float64) {
	t.Helper()
	lossFn := func() float64 {
		logits := net.Forward(x, false)
		l, _ := CrossEntropy{}.LossAndGrad(logits, labels)
		return l
	}
	zeroGrads(net)
	net.TrainStep(x, labels)
	for _, p := range net.Params() {
		if p.Grad == nil {
			continue // persistent state, not learnable
		}
		n := p.Value.Size()
		stride := n/7 + 1
		for i := 0; i < n; i += stride {
			want := numericGrad(p.Value, i, lossFn)
			got := float64(p.Grad.Data[i])
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Errorf("%s[%d]: analytic %v vs numeric %v", p.Name, i, got, want)
			}
		}
	}
}

func TestDenseGradCheck(t *testing.T) {
	r := tensor.NewRNG(10)
	net := NewNetwork("d",
		NewDense("fc1", 6, 8, r),
		NewReLU("relu1"),
		NewDense("fc2", 8, 4, r),
	)
	x := tensor.New(3, 6)
	x.FillNormal(r, 0, 1)
	checkGrads(t, net, x, []int{0, 2, 3}, 2e-2)
}

func TestConvGradCheck(t *testing.T) {
	r := tensor.NewRNG(11)
	g := tensor.Conv2DGeom{InChannels: 2, InHeight: 6, InWidth: 6, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 3}
	net := NewNetwork("c",
		NewConv2D("conv1", g, r),
		NewReLU("relu1"),
		NewFlatten("flat"),
		NewDense("fc", 3*6*6, 4, r),
	)
	x := tensor.New(2, 2, 6, 6)
	x.FillNormal(r, 0, 1)
	checkGrads(t, net, x, []int{1, 3}, 3e-2)
}

func TestPoolGradCheck(t *testing.T) {
	r := tensor.NewRNG(12)
	g := tensor.Conv2DGeom{InChannels: 1, InHeight: 8, InWidth: 8, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 2}
	net := NewNetwork("p",
		NewConv2D("conv1", g, r),
		NewReLU("relu1"),
		NewMaxPool2D("pool1", 2, 2),
		NewFlatten("flat"),
		NewDense("fc", 2*4*4, 3, r),
	)
	x := tensor.New(2, 1, 8, 8)
	x.FillNormal(r, 0, 1)
	// Max-pooling makes the loss piecewise-smooth: finite differences that
	// cross a winner-change boundary are biased, so the tolerance is looser
	// here than in the smooth-layer checks above.
	checkGrads(t, net, x, []int{0, 2}, 0.12)
}

func TestStridedConvGradCheck(t *testing.T) {
	r := tensor.NewRNG(13)
	g := tensor.Conv2DGeom{InChannels: 1, InHeight: 9, InWidth: 9, KernelSize: 3, Stride: 2, Padding: 0, OutChannels: 2}
	net := NewNetwork("s",
		NewConv2D("conv1", g, r),
		NewFlatten("flat"),
		NewDense("fc", 2*4*4, 3, r),
	)
	x := tensor.New(1, 1, 9, 9)
	x.FillNormal(r, 0, 1)
	checkGrads(t, net, x, []int{2}, 3e-2)
}
