package nn

import (
	"fmt"
	"testing"

	"insitu/internal/tensor"
)

// Benchmarks for the training/inference hot path. Steady-state kernel
// work (matmul, im2col, gradient accumulation, scratch) is allocation-
// free; what remains per step is the freshly returned activations.

func benchConvNet() (*Network, *tensor.Tensor, []int) {
	rng := tensor.NewRNG(7)
	g := tensor.Conv2DGeom{InChannels: 8, InHeight: 16, InWidth: 16, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 16}
	net := NewNetwork("bench",
		NewConv2D("conv1", g, rng),
		NewReLU("relu1"),
		NewFlatten("flat"),
		NewDense("fc1", 16*16*16, 10, rng),
	)
	x := tensor.New(8, 8, 16, 16)
	x.FillNormal(rng, 0, 1)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = i % 10
	}
	return net, x, labels
}

func benchDenseNet() (*Network, *tensor.Tensor, []int) {
	rng := tensor.NewRNG(9)
	net := NewNetwork("bench-fc",
		NewDense("fc1", 512, 512, rng),
		NewReLU("relu"),
		NewDense("fc2", 512, 10, rng),
	)
	x := tensor.New(32, 512)
	x.FillNormal(rng, 0, 1)
	labels := make([]int, 32)
	for i := range labels {
		labels[i] = i % 10
	}
	return net, x, labels
}

func BenchmarkConvTrainStep(b *testing.B) {
	net, x, labels := benchConvNet()
	net.TrainStep(x, labels)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zeroGrads(net)
		net.TrainStep(x, labels)
	}
}

func BenchmarkDenseTrainStep(b *testing.B) {
	net, x, labels := benchDenseNet()
	net.TrainStep(x, labels)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zeroGrads(net)
		net.TrainStep(x, labels)
	}
}

// BenchmarkConvForwardEval prices eval-mode inference per image at b1,
// where every conv layer runs one GEMM per image, and at b48, where it
// runs one per panel of up to 512 columns. Two stacks: TinyAlex's five
// convolutions on 24×24 images, whose per-image GEMMs are already
// blocked, and the jigsaw trunk on 8×8 patches, whose per-patch GEMMs
// are tiny. Compare us/image within a stack.
func BenchmarkConvForwardEval(b *testing.B) {
	rng := tensor.NewRNG(11)
	stacks := []struct {
		name  string
		convs []tensor.Conv2DGeom
	}{
		{"tinyalex", tinyAlexConvs},
		{"patch", jigsawTrunkConvs},
	}
	for _, st := range stacks {
		var layers []Layer
		for i, g := range st.convs {
			layers = append(layers, NewConv2D(fmt.Sprintf("conv%d", i+1), g, rng), NewReLU(fmt.Sprintf("relu%d", i+1)))
			// Both stacks pool 2×2 after their first two convs.
			if i < 2 {
				layers = append(layers, NewMaxPool2D(fmt.Sprintf("pool%d", i+1), 2, 2))
			}
		}
		net := NewNetwork(st.name, layers...)
		g := st.convs[0]
		for _, batch := range []int{1, 48} {
			x := tensor.New(batch, g.InChannels, g.InHeight, g.InWidth)
			x.FillNormal(rng, 0, 1)
			b.Run(fmt.Sprintf("%s/b%d", st.name, batch), func(b *testing.B) {
				net.Forward(x, false)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					net.Forward(x, false)
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*batch), "us/image")
			})
		}
	}
}
