package nn_test

import (
	"fmt"
	"math"
	"testing"

	"insitu/internal/jigsaw"
	"insitu/internal/models"
	"insitu/internal/nn"
	"insitu/internal/tensor"
	"insitu/internal/transfer"
)

// spy is a pass-through layer that counts its Backward calls. Placed
// directly below a layer, it sees that layer's input gradient.
type spy struct{ backward int }

func (s *spy) Name() string                                        { return "spy" }
func (s *spy) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { return x }
func (s *spy) Backward(dy *tensor.Tensor) *tensor.Tensor           { s.backward++; return dy }
func (s *spy) Params() []*nn.Param                                 { return nil }

// fullBackward is the reference TrainStep: it calls every layer's
// Backward, down to the first, whatever is frozen.
func fullBackward(net *nn.Network, x *tensor.Tensor, labels []int) float64 {
	loss, grad := nn.CrossEntropy{}.LossAndGrad(net.Forward(x, true), labels)
	for i := len(net.Layers) - 1; i >= 0; i-- {
		grad = net.Layers[i].Backward(grad)
	}
	return loss
}

// lowestTrainable is the stop layer worked out independently of
// Network: the first layer with a non-frozen parameter, len(layers) if
// none.
func lowestTrainable(layers []nn.Layer) int {
	for i, l := range layers {
		for _, p := range l.Params() {
			if !p.Frozen {
				return i
			}
		}
	}
	return len(layers)
}

// TrainStep stops backward at the lowest trainable layer. Every
// parameter gradient must equal, bit for bit, the one a backward
// through every layer computes, and no layer below the stop layer may
// see a Backward call.
func TestTrainStepStopsAtLowestTrainable(t *testing.T) {
	stack := func() *nn.Network {
		r := tensor.NewRNG(41)
		g1 := tensor.Conv2DGeom{InChannels: 3, InHeight: 8, InWidth: 8, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 6}
		g2 := tensor.Conv2DGeom{InChannels: 6, InHeight: 4, InWidth: 4, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 12}
		return nn.NewNetwork("stack",
			nn.NewConv2D("conv1", g1, r), nn.NewReLU("relu1"), nn.NewMaxPool2D("pool1", 2, 2),
			nn.NewConv2D("conv2", g2, r), nn.NewReLU("relu2"), nn.NewMaxPool2D("pool2", 2, 2),
			nn.NewFlatten("flat"),
			nn.NewDense("fc1", 12*2*2, 16, r), nn.NewReLU("relu3"),
			nn.NewDense("fc2", 16, 5, r),
		)
	}
	type tcase struct {
		name   string
		build  func() *nn.Network
		frozen []string
		input  []int // per-sample input shape
		group  int   // input rows per label (jigsaw tiles)
	}
	var cases []tcase
	depth := []string{"conv1", "conv2", "fc1", "fc2"}
	for d := 0; d <= len(depth); d++ {
		cases = append(cases, tcase{fmt.Sprintf("stack/locked=%d", d), stack, depth[:d], []int{3, 8, 8}, 1})
	}
	cases = append(cases,
		// A frozen layer above a trainable one still passes its input
		// gradient down.
		tcase{"stack/only-conv2", stack, []string{"conv2"}, []int{3, 8, 8}, 1},
		tcase{"TinyAlex/CONV-3", func() *nn.Network { return models.TinyAlex(5, 43) },
			transfer.ConvPrefixes(3), []int{models.ImgChannels, models.ImgSize, models.ImgSize}, 1},
		tcase{"jigsaw/trunk-frozen", func() *nn.Network { return jigsaw.NewNet(10, 44) },
			transfer.ConvPrefixes(3), []int{models.ImgChannels, models.PatchSize, models.PatchSize}, jigsaw.GridTiles},
	)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, net := tc.build(), tc.build()
			ref.FreezeLayers(tc.frozen...)
			net.FreezeLayers(tc.frozen...)
			stop := lowestTrainable(net.Layers)
			spies := make([]*spy, len(net.Layers))
			var layers []nn.Layer
			for i, l := range net.Layers {
				spies[i] = &spy{}
				layers = append(layers, spies[i], l)
			}
			spied := nn.NewNetwork(net.Name, layers...)

			rng := tensor.NewRNG(45)
			// Two steps at different batch sizes, so reused buffers are
			// resized between them.
			for step, batch := range []int{4, 3} {
				x := tensor.New(append([]int{batch * tc.group}, tc.input...)...)
				x.FillNormal(rng, 0, 1)
				labels := make([]int, batch)
				for i := range labels {
					labels[i] = rng.Intn(5)
				}
				for _, p := range append(ref.Params(), spied.Params()...) {
					p.ZeroGrad()
				}
				for _, s := range spies {
					s.backward = 0
				}
				want := fullBackward(ref, x, labels)
				got, _ := spied.TrainStep(x, labels)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d: loss %v, full backward %v", step, got, want)
				}
				nonzero := false
				for i, p := range net.Params() {
					q := ref.Params()[i]
					for j, v := range p.Grad.Data {
						if math.Float32bits(v) != math.Float32bits(q.Grad.Data[j]) {
							t.Fatalf("step %d: %s grad[%d] = %v, full backward %v", step, p.Name, j, v, q.Grad.Data[j])
						}
						nonzero = nonzero || v != 0
					}
				}
				if nonzero != (stop < len(net.Layers)) {
					t.Fatalf("step %d: some gradient nonzero = %v with stop layer %d of %d", step, nonzero, stop, len(net.Layers))
				}
				for i, s := range spies {
					want := 0
					if i > stop {
						want = 1
					}
					if s.backward != want {
						t.Errorf("step %d: input gradient of %s computed %d times, want %d (stop layer %d)",
							step, net.Layers[i].Name(), s.backward, want, stop)
					}
				}
			}
		})
	}
}
