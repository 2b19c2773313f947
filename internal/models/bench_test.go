package models

import (
	"testing"

	"insitu/internal/tensor"
)

// BenchmarkTrainStep measures the end-to-end cost of a single training
// step on TinyAlex — forward, backward, and optimizer update — which is
// the quantity every in-situ incremental-update experiment ultimately
// pays per sample batch. It exercises the blocked matmul/im2col kernel
// layer and its workspace pools directly.
func BenchmarkTrainStep(b *testing.B) {
	const batch = 8
	net := TinyAlex(10, 7)
	rng := tensor.NewRNG(7)
	x := tensor.New(batch, ImgChannels, ImgSize, ImgSize)
	x.FillNormal(rng, 0, 1)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = i % 10
	}
	zeroGrads := func() {
		for _, p := range net.Params() {
			p.ZeroGrad()
		}
	}
	zeroGrads()
	net.TrainStep(x, labels) // warm kernel and gradient pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zeroGrads()
		net.TrainStep(x, labels)
	}
}
