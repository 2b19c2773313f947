package nn

import (
	"math"
	"runtime"
	"testing"

	"insitu/internal/tensor"
)

// Conv2D.Backward sums per-chunk weight gradients after its parallel
// section. Those chunks must be the same whether the shared worker pool
// was free or busy with another section (as when fleet shards train
// concurrently), or the summation order — and so the gradient bits —
// would depend on scheduling.
func TestConvBackwardSameWhenPoolBusy(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("one P: the shared pool has no workers, so every section is one chunk")
	}
	g := tinyAlexConvs[1]
	r := tensor.NewRNG(43)
	l := NewConv2D("conv", g, r)
	const batch = 9
	x := tensor.New(batch, g.InChannels, g.InHeight, g.InWidth)
	x.FillNormal(r, 0, 1)
	dy := tensor.New(batch, g.OutChannels, g.OutHeight(), g.OutWidth())
	dy.FillNormal(r, 0, 1)

	grads := func() (dW, dB, dx []float32) {
		l.W.ZeroGrad()
		l.B.ZeroGrad()
		l.Forward(x, true)
		dx = append([]float32(nil), l.Backward(dy).Data...)
		return append([]float32(nil), l.W.Grad.Data...), append([]float32(nil), l.B.Grad.Data...), dx
	}
	wantW, wantB, wantX := grads()
	var gotW, gotB, gotX []float32
	// Hold the pool with a two-chunk section and run the backward from
	// inside its first chunk, so every parallel section it issues misses
	// the pool.
	tensor.ParallelChunks(2, func(chunk, _, _ int) {
		if chunk == 0 {
			gotW, gotB, gotX = grads()
		}
	})
	for _, c := range []struct {
		name      string
		got, want []float32
	}{{"dW", gotW, wantW}, {"dB", gotB, wantB}, {"dx", gotX, wantX}} {
		for i := range c.want {
			if math.Float32bits(c.got[i]) != math.Float32bits(c.want[i]) {
				t.Fatalf("%s[%d] = %v with the pool busy, %v with it free", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}
