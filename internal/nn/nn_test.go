package nn

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"insitu/internal/tensor"
)

func TestReLUForwardBackward(t *testing.T) {
	l := NewReLU("r")
	x := tensor.FromSlice([]float32{-1, 0, 2, -3}, 1, 4)
	y := l.Forward(x, true)
	want := []float32{0, 0, 2, 0}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("forward[%d] = %v, want %v", i, y.Data[i], w)
		}
	}
	dy := tensor.FromSlice([]float32{1, 1, 1, 1}, 1, 4)
	dx := l.Backward(dy)
	wantDx := []float32{0, 0, 1, 0}
	for i, w := range wantDx {
		if dx.Data[i] != w {
			t.Fatalf("backward[%d] = %v, want %v", i, dx.Data[i], w)
		}
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	l := NewFlatten("f")
	x := tensor.New(2, 3, 4, 5)
	y := l.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 60 {
		t.Fatalf("flatten shape = %v", y.Shape())
	}
	dy := tensor.New(2, 60)
	dx := l.Backward(dy)
	if !dx.SameShape(x) {
		t.Fatalf("backward shape = %v, want %v", dx.Shape(), x.Shape())
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	l := NewDropout("d", 0.5, 1)
	x := tensor.New(1, 1000)
	x.Fill(1)
	// Eval: identity.
	y := l.Forward(x, false)
	for _, v := range y.Data {
		if v != 1 {
			t.Fatal("dropout modified input in eval mode")
		}
	}
	// Train: roughly half dropped, survivors scaled by 2, mean preserved.
	y = l.Forward(x, true)
	zero := 0
	var sum float64
	for _, v := range y.Data {
		if v == 0 {
			zero++
		} else if v != 2 {
			t.Fatalf("survivor scaled to %v, want 2", v)
		}
		sum += float64(v)
	}
	if zero < 400 || zero > 600 {
		t.Fatalf("dropped %d of 1000, want ~500", zero)
	}
	mean := sum / 1000
	if mean < 0.8 || mean > 1.2 {
		t.Fatalf("mean after inverted dropout = %v, want ~1", mean)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	r := tensor.NewRNG(20)
	x := tensor.New(5, 7)
	x.FillNormal(r, 0, 3)
	p := Softmax(x)
	for i := 0; i < 5; i++ {
		var s float64
		for j := 0; j < 7; j++ {
			v := p.At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("prob out of range: %v", v)
			}
			s += float64(v)
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	x := tensor.FromSlice([]float32{1000, 1001, 999}, 1, 3)
	p := Softmax(x)
	for _, v := range p.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax overflow: %v", p.Data)
		}
	}
	if p.At(0, 1) < p.At(0, 0) || p.At(0, 0) < p.At(0, 2) {
		t.Fatalf("softmax ordering wrong: %v", p.Data)
	}
}

func TestCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over 4 classes → loss = ln(4).
	x := tensor.New(2, 4)
	loss, grad := CrossEntropy{}.LossAndGrad(x, []int{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Fatalf("loss = %v, want ln4 = %v", loss, math.Log(4))
	}
	// Gradient at true class is (0.25-1)/2; others 0.25/2.
	if math.Abs(float64(grad.At(0, 0))-(-0.375)) > 1e-6 {
		t.Fatalf("grad true class = %v, want -0.375", grad.At(0, 0))
	}
	if math.Abs(float64(grad.At(0, 1))-0.125) > 1e-6 {
		t.Fatalf("grad other class = %v, want 0.125", grad.At(0, 1))
	}
}

func TestAccuracyAndArgmax(t *testing.T) {
	x := tensor.FromSlice([]float32{
		1, 5, 2,
		9, 0, 1,
		0, 1, 8,
	}, 3, 3)
	if got := Argmax(x); got[0] != 1 || got[1] != 0 || got[2] != 2 {
		t.Fatalf("Argmax = %v", got)
	}
	if got := Accuracy(x, []int{1, 0, 0}); math.Abs(got-2.0/3.0) > 1e-9 {
		t.Fatalf("Accuracy = %v, want 2/3", got)
	}
}

func TestSGDStepMovesAgainstGradient(t *testing.T) {
	p := NewParam("w", tensor.FromSlice([]float32{1, 2}, 2))
	p.Grad.Data[0] = 0.5
	p.Grad.Data[1] = -0.5
	opt := NewSGD(0.1, 0, 0)
	opt.Step([]*Param{p})
	if math.Abs(float64(p.Value.Data[0])-0.95) > 1e-6 || math.Abs(float64(p.Value.Data[1])-2.05) > 1e-6 {
		t.Fatalf("after step: %v", p.Value.Data)
	}
	// Gradient is cleared after the step.
	if p.Grad.Data[0] != 0 || p.Grad.Data[1] != 0 {
		t.Fatalf("grad not cleared: %v", p.Grad.Data)
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	p := NewParam("w", tensor.FromSlice([]float32{0}, 1))
	opt := NewSGD(1, 0.9, 0)
	// Constant gradient 1: v1=-1, v2=-1.9, positions -1, -2.9.
	p.Grad.Data[0] = 1
	opt.Step([]*Param{p})
	p.Grad.Data[0] = 1
	opt.Step([]*Param{p})
	if math.Abs(float64(p.Value.Data[0])+2.9) > 1e-6 {
		t.Fatalf("momentum position = %v, want -2.9", p.Value.Data[0])
	}
}

func TestSGDSkipsFrozen(t *testing.T) {
	p := NewParam("w", tensor.FromSlice([]float32{1}, 1))
	p.Frozen = true
	p.Grad.Data[0] = 100
	opt := NewSGD(0.1, 0.9, 0)
	opt.Step([]*Param{p})
	if p.Value.Data[0] != 1 {
		t.Fatalf("frozen param moved to %v", p.Value.Data[0])
	}
	if p.Grad.Data[0] != 0 {
		t.Fatal("frozen param grad not cleared")
	}
}

func TestNetworkFreezeByPrefix(t *testing.T) {
	r := tensor.NewRNG(40)
	g := tensor.Conv2DGeom{InChannels: 1, InHeight: 8, InWidth: 8, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 2}
	net := NewNetwork("f",
		NewConv2D("conv1", g, r),
		NewConv2D("conv2", tensor.Conv2DGeom{InChannels: 2, InHeight: 8, InWidth: 8, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 2}, r),
		NewFlatten("flat"),
		NewDense("fc1", 2*8*8, 3, r),
	)
	if n := net.FreezeLayers("conv1", "conv2"); n != 4 {
		t.Fatalf("froze %d params, want 4 (2 layers × W,b)", n)
	}
	if got := frozenParams(net); got != 4 {
		t.Fatalf("frozen params = %d", got)
	}
	if n := net.UnfreezeLayers("conv1"); n != 2 {
		t.Fatalf("unfroze %d, want 2", n)
	}
	if got := frozenParams(net); got != 2 {
		t.Fatalf("after unfreeze frozen params = %d", got)
	}
}

func frozenParams(n *Network) int {
	c := 0
	for _, p := range n.Params() {
		if p.Frozen {
			c++
		}
	}
	return c
}

// zeroGrads clears every parameter gradient of n.
func zeroGrads(n *Network) {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

func TestFrozenLayersDoNotLearn(t *testing.T) {
	r := tensor.NewRNG(41)
	net := NewNetwork("fl",
		NewDense("fc1", 4, 6, r),
		NewReLU("relu"),
		NewDense("fc2", 6, 2, r),
	)
	net.FreezeLayers("fc1")
	before := append([]float32(nil), net.Layers[0].Params()[0].Value.Data...)
	x := tensor.New(4, 4)
	x.FillNormal(r, 0, 1)
	opt := NewSGD(0.1, 0.9, 0)
	for i := 0; i < 5; i++ {
		net.TrainStep(x, []int{0, 1, 0, 1})
		opt.Step(net.Params())
	}
	after := net.Layers[0].Params()[0].Value.Data
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("frozen fc1 weights changed during training")
		}
	}
	// The unfrozen head must have moved.
	moved := false
	for _, v := range net.Layers[2].Params()[0].Grad.Data {
		_ = v
	}
	w2 := net.Layers[2].Params()[0].Value.Data
	fresh := NewDense("fc2", 6, 2, tensor.NewRNG(41))
	_ = fresh
	for _, v := range w2 {
		if v != 0 {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("fc2 appears untouched")
	}
}

func TestCopyWeightsFromPrefix(t *testing.T) {
	build := func(seed uint64) *Network {
		r := tensor.NewRNG(seed)
		return NewNetwork("n",
			NewDense("fc1", 3, 4, r),
			NewDense("fc2", 4, 2, r),
		)
	}
	a, b := build(1), build(2)
	copied, err := b.CopyWeightsFrom(a, "fc1")
	if err != nil {
		t.Fatal(err)
	}
	if copied != 2 {
		t.Fatalf("copied %d params, want 2", copied)
	}
	aw := a.Layers[0].Params()[0].Value.Data
	bw := b.Layers[0].Params()[0].Value.Data
	for i := range aw {
		if aw[i] != bw[i] {
			t.Fatal("fc1 weights not copied")
		}
	}
	aw2 := a.Layers[1].Params()[0].Value.Data
	bw2 := b.Layers[1].Params()[0].Value.Data
	same := true
	for i := range aw2 {
		if aw2[i] != bw2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("fc2 weights unexpectedly copied")
	}
}

func TestNetworkLearnsXOR(t *testing.T) {
	// End-to-end sanity: a small MLP must fit XOR.
	r := tensor.NewRNG(50)
	net := NewNetwork("xor",
		NewDense("fc1", 2, 16, r),
		NewReLU("relu1"),
		NewDense("fc2", 16, 2, r),
	)
	x := tensor.FromSlice([]float32{0, 0, 0, 1, 1, 0, 1, 1}, 4, 2)
	labels := []int{0, 1, 1, 0}
	opt := NewSGD(0.3, 0.9, 0)
	var acc float64
	for i := 0; i < 300; i++ {
		_, acc = net.TrainStep(x, labels)
		opt.Step(net.Params())
		if acc == 1 && i > 50 {
			break
		}
	}
	if acc != 1 {
		t.Fatalf("failed to fit XOR, final accuracy %v", acc)
	}
}

func TestSaveLoadWeightsRoundTrip(t *testing.T) {
	build := func(seed uint64) *Network {
		r := tensor.NewRNG(seed)
		g := tensor.Conv2DGeom{InChannels: 1, InHeight: 6, InWidth: 6, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 2}
		return NewNetwork("rt",
			NewConv2D("conv1", g, r),
			NewReLU("relu"),
			NewFlatten("flat"),
			NewDense("fc", 2*6*6, 3, r),
		)
	}
	a, b := build(1), build(2)
	var buf bytes.Buffer
	if err := a.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	if err := b.LoadWeights(&buf); err != nil {
		t.Fatal(err)
	}
	ap, bp := a.Params(), b.Params()
	for i := range ap {
		for j := range ap[i].Value.Data {
			if ap[i].Value.Data[j] != bp[i].Value.Data[j] {
				t.Fatalf("param %s differs after round trip", ap[i].Name)
			}
		}
	}
	// Identical behaviour.
	r := tensor.NewRNG(3)
	x := tensor.New(2, 1, 6, 6)
	x.FillNormal(r, 0, 1)
	ya := a.Forward(x, false)
	yb := b.Forward(x, false)
	for i := range ya.Data {
		if ya.Data[i] != yb.Data[i] {
			t.Fatal("networks diverge after weight round trip")
		}
	}
}

func TestLoadWeightsRejectsCorruptMagic(t *testing.T) {
	r := tensor.NewRNG(60)
	net := NewNetwork("m", NewDense("fc", 2, 2, r))
	if err := net.LoadWeights(bytes.NewBufferString("XXXXXXXXjunkjunk")); err == nil {
		t.Fatal("expected error for bad magic")
	}
}

func TestLoadWeightsRejectsWrongArch(t *testing.T) {
	r := tensor.NewRNG(61)
	a := NewNetwork("a", NewDense("fc", 2, 2, r))
	b := NewNetwork("b", NewDense("fc", 3, 2, r))
	var buf bytes.Buffer
	if err := a.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	if err := b.LoadWeights(&buf); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

// Property: training loss on a random separable problem decreases over
// epochs (optimizer sanity under arbitrary seeds).
func TestQuickTrainingDecreasesLoss(t *testing.T) {
	f := func(seed uint8) bool {
		r := tensor.NewRNG(uint64(seed) + 100)
		net := NewNetwork("q",
			NewDense("fc1", 4, 12, r),
			NewReLU("relu"),
			NewDense("fc2", 12, 3, r),
		)
		x := tensor.New(12, 4)
		labels := make([]int, 12)
		for i := 0; i < 12; i++ {
			c := i % 3
			labels[i] = c
			for j := 0; j < 4; j++ {
				x.Data[i*4+j] = float32(c) + 0.1*float32(r.NormFloat64())
			}
		}
		opt := NewSGD(0.05, 0.9, 0)
		first, _ := net.TrainStep(x, labels)
		opt.Step(net.Params())
		var last float64
		for i := 0; i < 60; i++ {
			last, _ = net.TrainStep(x, labels)
			opt.Step(net.Params())
		}
		return last < first
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
