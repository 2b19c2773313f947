package nn

import (
	"math"
	"testing"

	"insitu/internal/telemetry"
	"insitu/internal/tensor"
)

// tinyAlexConvs are TinyAlex's five convolution geometries (see
// internal/models), spelled out here because models imports nn.
var tinyAlexConvs = []tensor.Conv2DGeom{
	{InChannels: 3, InHeight: 24, InWidth: 24, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 12},
	{InChannels: 12, InHeight: 12, InWidth: 12, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 16},
	{InChannels: 16, InHeight: 6, InWidth: 6, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 24},
	{InChannels: 24, InHeight: 6, InWidth: 6, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 24},
	{InChannels: 24, InHeight: 6, InWidth: 6, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 16},
}

// jigsawTrunkConvs are the jigsaw trunk's three convolutions on one 8×8
// patch.
var jigsawTrunkConvs = []tensor.Conv2DGeom{
	{InChannels: 3, InHeight: 8, InWidth: 8, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 12},
	{InChannels: 12, InHeight: 4, InWidth: 4, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 16},
	{InChannels: 16, InHeight: 2, InWidth: 2, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 24},
}

// The eval-mode panel convolution multiplies tiles of images in one GEMM;
// the training forward still runs one GEMM per image. On every TinyAlex
// geometry the per-image GEMM is already on the blocked path (the test
// checks that no small-path call happens), whose per-element k-order does
// not depend on the column count — so the two must agree bit for bit, at
// any batch size and wherever an image falls inside a panel.
func TestConvEvalPanelsMatchPerImageBitForBit(t *testing.T) {
	reg := telemetry.NewRegistry()
	tensor.EnableTelemetry(reg)
	defer tensor.EnableTelemetry(nil)
	small := reg.Counter("tensor_gemm_small_calls_total")

	r := tensor.NewRNG(41)
	for i, g := range tinyAlexConvs {
		l := NewConv2D("conv", g, r)
		l.B.Value.FillNormal(r, 0, 0.1)
		l.B.Value.Data[0] = 0 // the zero-bias row is skipped, not added
		for _, batch := range []int{1, 7, 64} {
			x := tensor.New(batch, g.InChannels, g.InHeight, g.InWidth)
			x.FillNormal(r, 0, 1)
			before := small.Value()
			want := l.Forward(x, true) // one GEMM per image
			if small.Value() != before {
				t.Fatalf("conv%d: per-image GEMM took the small path; bit-identity is not promised there", i+1)
			}
			got := l.Forward(x, false)
			for j := range want.Data {
				if math.Float32bits(got.Data[j]) != math.Float32bits(want.Data[j]) {
					t.Fatalf("conv%d batch %d: eval[%d] = %v, per-image %v", i+1, batch, j, got.Data[j], want.Data[j])
				}
			}
		}
	}
}

// An eval forward keeps no backward state: ReLU's mask, MaxPool2D's
// argmax and Conv2D's column matrices stay empty (and never grow past
// what training allocated), so a Backward after it panics instead of
// using a stale cache.
func TestEvalForwardKeepsNoBackwardState(t *testing.T) {
	r := tensor.NewRNG(43)
	g := tensor.Conv2DGeom{InChannels: 2, InHeight: 6, InWidth: 6, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 3}
	conv := NewConv2D("conv", g, r)
	relu := NewReLU("relu")
	pool := NewMaxPool2D("pool", 2, 2)

	small := tensor.New(2, 2, 6, 6)
	small.FillNormal(r, 0, 1)
	large := tensor.New(16, 2, 6, 6)
	large.FillNormal(r, 0, 1)

	// Train on a small batch, then run eval on a larger one.
	pool.Forward(relu.Forward(conv.Forward(small, true), true), true)
	maskCap, argmaxCap := cap(relu.mask), cap(pool.argmax)
	y := pool.Forward(relu.Forward(conv.Forward(large, false), false), false)
	if len(relu.mask) != 0 || cap(relu.mask) != maskCap {
		t.Errorf("eval ReLU left mask len %d cap %d, want 0 and %d", len(relu.mask), cap(relu.mask), maskCap)
	}
	if len(pool.argmax) != 0 || cap(pool.argmax) != argmaxCap {
		t.Errorf("eval MaxPool2D left argmax len %d cap %d, want 0 and %d", len(pool.argmax), cap(pool.argmax), argmaxCap)
	}
	if len(conv.cols) != 0 {
		t.Errorf("eval Conv2D kept %d column matrices", len(conv.cols))
	}

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s Backward after an eval forward did not panic", name)
			}
		}()
		f()
	}
	mustPanic("MaxPool2D", func() { pool.Backward(y) })
	mustPanic("ReLU", func() { relu.Backward(tensor.New(16, 3, 6, 6)) })
	mustPanic("Conv2D", func() { conv.Backward(tensor.New(16, 3, 6, 6)) })
}

// Eval ReLU and MaxPool2D compute exactly what their training forwards
// compute, bit for bit, signed zeros and infinities included; a NaN stays
// a NaN (eval ReLU need not keep its sign bit).
func TestEvalActivationsMatchTrain(t *testing.T) {
	r := tensor.NewRNG(47)
	x := tensor.New(3, 4, 6, 6)
	x.FillNormal(r, 0, 1)
	nan := float32(math.NaN())
	copy(x.Data, []float32{float32(math.Copysign(0, -1)), 0, nan, float32(math.Inf(1)), float32(math.Inf(-1)), -nan})
	for _, l := range []Layer{NewReLU("relu"), NewMaxPool2D("pool", 2, 2), NewMaxPool2D("pool3", 3, 1)} {
		want := l.Forward(x, true)
		got := l.Forward(x, false)
		if !got.SameShape(want) {
			t.Fatalf("%s: eval shape %v, train %v", l.Name(), got.Shape(), want.Shape())
		}
		for i := range want.Data {
			if want.Data[i] != want.Data[i] && got.Data[i] != got.Data[i] {
				continue
			}
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%s: eval[%d] = %v, train %v", l.Name(), i, got.Data[i], want.Data[i])
			}
		}
	}
}
