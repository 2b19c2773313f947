package nn

import (
	"testing"

	"insitu/internal/telemetry"
	"insitu/internal/tensor"
)

// The backward kernels write gradients into persistent buffers; after
// the first step warms the caches, Dense.Backward performs no heap
// allocation at all.
func TestDenseBackwardZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates on otherwise allocation-free paths")
	}
	rng := tensor.NewRNG(21)
	l := NewDense("fc", 64, 32, rng)
	x := tensor.New(16, 64)
	x.FillNormal(rng, 0, 1)
	dy := tensor.New(16, 32)
	dy.FillNormal(rng, 0, 1)
	l.Forward(x, true)
	l.Backward(dy) // warm dx buffer and pack pools
	if allocs := testing.AllocsPerRun(50, func() { l.Backward(dy) }); allocs != 0 {
		t.Errorf("Dense.Backward allocates %.1f objects per step in steady state, want 0", allocs)
	}
}

// ReLU masks the gradient in place: a steady-state Backward allocates
// nothing and keeps no buffer.
func TestReLUBackwardZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates on otherwise allocation-free paths")
	}
	rng := tensor.NewRNG(23)
	x := tensor.New(8, 4, 12, 12)
	x.FillNormal(rng, 0, 1)
	l := NewReLU("relu")
	dy := l.Forward(x, true)
	if allocs := testing.AllocsPerRun(50, func() { l.Backward(dy) }); allocs != 0 {
		t.Errorf("ReLU.Backward allocates %.1f objects per step, want 0", allocs)
	}
}

// Turning telemetry on must not cost the kernels their zero-allocation
// steady state: the counters are pre-allocated atomics and the per-layer
// histogram lookup is a read-locked map probe.
func TestDenseBackwardZeroAllocWithTelemetry(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates on otherwise allocation-free paths")
	}
	reg := telemetry.NewRegistry()
	tensor.EnableTelemetry(reg)
	EnableTelemetry(reg)
	defer func() {
		tensor.EnableTelemetry(nil)
		EnableTelemetry(nil)
	}()
	rng := tensor.NewRNG(22)
	l := NewDense("fc", 64, 32, rng)
	x := tensor.New(16, 64)
	x.FillNormal(rng, 0, 1)
	dy := tensor.New(16, 32)
	dy.FillNormal(rng, 0, 1)
	l.Forward(x, true)
	l.Backward(dy) // warm dx buffer and pack pools
	if allocs := testing.AllocsPerRun(50, func() { l.Backward(dy) }); allocs != 0 {
		t.Errorf("Dense.Backward with telemetry enabled allocates %.1f objects per step, want 0", allocs)
	}
	if reg.Counter("tensor_workspace_gets_total").Value() == 0 {
		t.Error("telemetry enabled but workspace counters did not move")
	}
}

// Conv2D's remaining per-step allocations are bounded bookkeeping (the
// parallel-section closure and per-sample tensor views); the kernel and
// gradient buffers themselves are pooled. Guard against regressing to
// the old per-sample gradient-tensor behaviour.
func TestConvTrainStepAllocsBounded(t *testing.T) {
	net, x, labels := benchConvNet()
	zeroGrads(net)
	net.TrainStep(x, labels)
	zeroGrads(net)
	net.TrainStep(x, labels)
	allocs := testing.AllocsPerRun(10, func() {
		zeroGrads(net)
		net.TrainStep(x, labels)
	})
	// The naive implementation allocated 322 objects (1.4 MB) per step
	// on this workload; the pooled one sits near 190.
	if allocs > 250 {
		t.Errorf("conv train step allocates %.0f objects per step, want ≤ 250", allocs)
	}
}

// Eval-mode forward must source its im2col scratch from the workspace
// pool: repeated inference on the same shape should not grow past the
// activations it returns.
func TestConvForwardEvalReusesScratch(t *testing.T) {
	net, x, _ := benchConvNet()
	net.Forward(x, false)
	allocs := testing.AllocsPerRun(10, func() { net.Forward(x, false) })
	// Output activations dominate; the old per-call scratch added the
	// full column matrix on top. ~90 objects in the pooled steady state.
	if allocs > 150 {
		t.Errorf("eval forward allocates %.0f objects per call, want ≤ 150", allocs)
	}
}
