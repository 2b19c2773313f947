package fpgasim

import (
	"math"
	"testing"
	"testing/quick"

	"insitu/internal/device"
	"insitu/internal/models"
)

func alexWorkload() CoRunWorkload { return NewCoRunWorkload(models.AlexNet()) }

func TestNWSEngineCycles(t *testing.T) {
	e := NWSEngine{Tm: 4, Tn: 2}
	l := models.LayerSpec{Name: "c", Kind: models.Conv, N: 3, M: 10, K: 3, R: 5, C: 7}
	// ceil(10/4)=3, ceil(3/2)=2, K²=9, RC=35 → 3·2·9·35 = 1890.
	if got := e.ConvCycles(l); got != 1890 {
		t.Fatalf("ConvCycles = %d, want 1890", got)
	}
	if e.DSP() != 8 {
		t.Fatalf("DSP = %d", e.DSP())
	}
}

func TestNWSUtilizationEq4(t *testing.T) {
	e := NWSEngine{Tm: 4, Tn: 2}
	l := models.LayerSpec{Name: "c", Kind: models.Conv, N: 3, M: 10, K: 3, R: 5, C: 7}
	// Eq. (4): N·M/(Tn·Tm·⌈N/Tn⌉·⌈M/Tm⌉) = 30/(8·2·3) = 0.625.
	if got := e.Utilization(l); math.Abs(got-0.625) > 1e-9 {
		t.Fatalf("Utilization = %v, want 0.625", got)
	}
	// Perfect fit utilizes fully.
	e2 := NWSEngine{Tm: 5, Tn: 3}
	if got := e2.Utilization(l); math.Abs(got-1) > 1e-9 {
		t.Fatalf("perfect-fit utilization = %v", got)
	}
}

func TestFPGAUtilizationBatchIndependent(t *testing.T) {
	// Fig. 15's FPGA property: eq. (4) has no batch term. The engine's
	// per-image cycles scale exactly linearly, so utilization is flat.
	e := NWSEngine{Tm: 32, Tn: 16}
	l := models.AlexNet().Layers[2] // conv3
	u := e.Utilization(l)
	for batch := 2; batch <= 64; batch *= 2 {
		if got := e.Utilization(l); got != u {
			t.Fatalf("utilization changed with batch: %v vs %v", got, u)
		}
	}
}

func TestFCNCyclesAndAccess(t *testing.T) {
	e := NWSEngine{Tm: 32, Tn: 32}
	fc := models.FCSpec("fc", 100, 64)
	// ceil(100/32)=4, ceil(64/32)=2 → 8 cycles per sample.
	if got := e.FCNCycles(fc, 3); got != 24 {
		t.Fatalf("FCNCycles = %d, want 24", got)
	}
	// Access: batchOpt: 4·(MN + B(N+M)) = 4·(6400+3·164) = 27568.
	if got := FCNAccessBytes(fc, 3, true); got != 4*(6400+3*164) {
		t.Fatalf("batchOpt access = %d", got)
	}
	// No opt: 4·B·(MN+N+M) = 4·3·6564.
	if got := FCNAccessBytes(fc, 3, false); got != 4*3*6564 {
		t.Fatalf("no-opt access = %d", got)
	}
}

func TestBatchLoopReducesTraffic(t *testing.T) {
	// Fig. 13/14: the batch loop reuses FCN weights across the batch.
	fc := models.FCSpec("fc6", 9216, 4096)
	opt := FCNAccessBytes(fc, 32, true)
	raw := FCNAccessBytes(fc, 32, false)
	if opt*10 > raw {
		t.Fatalf("batch loop saves too little: %d vs %d", opt, raw)
	}
	// Batch 1: identical.
	if FCNAccessBytes(fc, 1, true) != FCNAccessBytes(fc, 1, false) {
		t.Fatal("batch-1 traffic must not depend on the optimization")
	}
}

func TestWSSGroupCyclesEq11(t *testing.T) {
	e := WSSEngine{Tr: 14, Tc: 14}
	l := models.AlexNet().Layers[0] // conv1
	// ⌈96/4⌉·3·121·⌈55/14⌉·⌈55/14⌉ = 24·3·121·16 = 139392.
	if got := e.ConvCyclesGroup(l, 4); got != 24*3*121*16 {
		t.Fatalf("eq11 cycles = %d, want %d", got, 24*3*121*16)
	}
}

func TestWSSDesignBudget(t *testing.T) {
	d := DefaultWSSDesign(2628, 9)
	if d.PEPerWSS() != 14*14+9*7*7 {
		t.Fatalf("PEPerWSS = %d, want 637", d.PEPerWSS())
	}
	if d.GroupSize != 4 {
		t.Fatalf("GroupSize = %d, want 4", d.GroupSize)
	}
	if pe := d.GroupSize * d.PEPerWSS(); pe > 2628 {
		t.Fatalf("design exceeds budget: %d", pe)
	}
	// Tiny budget still yields a working (single) group.
	if DefaultWSSDesign(100, 9).GroupSize != 1 {
		t.Fatal("minimum group size must be 1")
	}
}

func TestWeightBytesAccounting(t *testing.T) {
	spec := models.AlexNet()
	all := ConvWeightBytes(spec)
	if all <= 0 {
		t.Fatal("no conv weights")
	}
	if SharedConvWeightBytes(spec, 0) != 0 {
		t.Fatal("CONV-0 shares nothing")
	}
	if SharedConvWeightBytes(spec, 5) != all {
		t.Fatal("CONV-5 must share all conv weights")
	}
	if s3 := SharedConvWeightBytes(spec, 3); s3 <= 0 || s3 >= all {
		t.Fatalf("CONV-3 shared bytes = %d of %d", s3, all)
	}
	// Requesting more layers than exist saturates.
	if SharedConvWeightBytes(spec, 99) != all {
		t.Fatal("overlong prefix must saturate")
	}
}

// Fig. 22's three claims: WSS beats NWS and WS in compute time; WS is the
// worst; data-access time shrinks as more layers are shared (for the
// sharing-capable architectures) while NWS's stays flat.
func TestFig22Shapes(t *testing.T) {
	spec := device.VX690T()
	w := alexWorkload()
	const pe = 2628
	nws0 := RunNWS(spec, pe, w, 0)
	ws0 := RunWS(spec, pe, w, 0)
	wss0 := RunWSS(spec, pe, w, 0)
	if !(wss0.ComputeTime < nws0.ComputeTime && nws0.ComputeTime < ws0.ComputeTime) {
		t.Fatalf("compute ordering broken: WSS %v, NWS %v, WS %v",
			wss0.ComputeTime, nws0.ComputeTime, ws0.ComputeTime)
	}
	// WS diagnosis engines idle ~75% of cycles (paper §IV-B2).
	if ws0.DiagIdleFrac < 0.6 || ws0.DiagIdleFrac > 0.9 {
		t.Fatalf("WS idle fraction = %v, want ~0.75", ws0.DiagIdleFrac)
	}
	// WSS balanced: minimal idleness.
	if wss0.DiagIdleFrac > 0.15 {
		t.Fatalf("WSS idle fraction = %v, want ~0", wss0.DiagIdleFrac)
	}
	// Data access falls with shared layers for WSS, flat for NWS.
	wss3 := RunWSS(spec, pe, w, 3)
	wss5 := RunWSS(spec, pe, w, 5)
	if !(wss5.DataTime < wss3.DataTime && wss3.DataTime < wss0.DataTime) {
		t.Fatalf("WSS data time not decreasing: %v, %v, %v",
			wss0.DataTime, wss3.DataTime, wss5.DataTime)
	}
	nws5 := RunNWS(spec, pe, w, 5)
	if nws5.DataTime != nws0.DataTime {
		t.Fatal("NWS data time must not depend on sharing")
	}
	if wss5.DataTime >= nws5.DataTime {
		t.Fatalf("WSS data %v not below NWS %v", wss5.DataTime, nws5.DataTime)
	}
	// Total: WSS wins under every sharing strategy.
	for _, shared := range []int{0, 3, 5} {
		nws := RunNWS(spec, pe, w, shared)
		ws := RunWS(spec, pe, w, shared)
		wss := RunWSS(spec, pe, w, shared)
		if wss.Total() >= nws.Total() || wss.Total() >= ws.Total() {
			t.Fatalf("CONV-%d: WSS %v not fastest (NWS %v, WS %v)",
				shared, wss.Total(), nws.Total(), ws.Total())
		}
	}
}

func TestBestNWSEngineRespectsBudget(t *testing.T) {
	layers := models.AlexNet().ConvLayers()
	for _, budget := range []int{64, 256, 1024, 2628} {
		e := BestNWSEngine(budget, layers)
		if e.DSP() > budget {
			t.Fatalf("engine %dx%d exceeds budget %d", e.Tm, e.Tn, budget)
		}
		if e.Tm < 1 || e.Tn < 1 {
			t.Fatalf("degenerate engine %+v", e)
		}
	}
}

func TestBestNWSEngineBeatsNaive(t *testing.T) {
	layers := models.AlexNet().ConvLayers()
	best := BestNWSEngine(1024, layers)
	naive := NWSEngine{Tm: 32, Tn: 32}
	var bestC, naiveC int64
	for _, l := range layers {
		bestC += best.ConvCycles(l)
		naiveC += naive.ConvCycles(l)
	}
	if bestC > naiveC {
		t.Fatalf("search result (%d cycles) worse than naive square (%d)", bestC, naiveC)
	}
}

// Fig. 23: the four pipeline architectures in the paper's ordering.
func TestFig23Shapes(t *testing.T) {
	spec := device.VX690T()
	w := alexWorkload()
	build := func(a ConvArch) *Pipeline {
		p, err := NewPipeline(spec, a, w, 3)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	nws, nwsB, ws, wss := build(ArchNWS), build(ArchNWSBatch), build(ArchWS), build(ArchWSSNWS)

	// WS misses the 50 ms requirement; WSS-NWS meets it.
	if ws.MaxThroughputUnderLatency(0.05, 256).Feasible {
		t.Fatal("WS should miss the 50ms requirement")
	}
	wss50 := wss.MaxThroughputUnderLatency(0.05, 256)
	if !wss50.Feasible {
		t.Fatal("WSS-NWS should meet the 50ms requirement")
	}

	// NWS cannot raise its throughput even at 800 ms (≤10% over 100 ms).
	n100 := nws.MaxThroughputUnderLatency(0.1, 256).Throughput
	n800 := nws.MaxThroughputUnderLatency(0.8, 256).Throughput
	if n800 > n100*1.10 {
		t.Fatalf("NWS throughput should be flat: %v -> %v", n100, n800)
	}

	// NWS-batch clearly improves with looser latency and beats NWS.
	nb100 := nwsB.MaxThroughputUnderLatency(0.1, 256).Throughput
	nb800 := nwsB.MaxThroughputUnderLatency(0.8, 256).Throughput
	if nb800 <= nb100 {
		t.Fatalf("NWS-batch should grow with latency: %v -> %v", nb100, nb800)
	}
	if nb800 <= n800 {
		t.Fatalf("NWS-batch (%v) should beat NWS (%v)", nb800, n800)
	}

	// WSS-NWS at the strictest latency beats NWS-batch at the loosest.
	if wss50.Throughput <= nb800 {
		t.Fatalf("WSS-NWS@50ms (%v) should beat NWS-batch@800ms (%v)", wss50.Throughput, nb800)
	}

	// WS always produces the lowest throughput where feasible.
	for _, treq := range []float64{0.1, 0.2, 0.4, 0.8} {
		wsT := ws.MaxThroughputUnderLatency(treq, 256).Throughput
		for _, p := range []*Pipeline{nws, nwsB, wss} {
			if other := p.MaxThroughputUnderLatency(treq, 256).Throughput; wsT >= other {
				t.Fatalf("WS (%v) not lowest at %vs (vs %s %v)", wsT, treq, p.Arch, other)
			}
		}
	}
}

func TestPipelineEq10DSPBudget(t *testing.T) {
	spec := device.VX690T()
	p, err := NewPipeline(spec, ArchWSSNWS, alexWorkload(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.ConvPE+p.FCNPE > spec.DSPSlices {
		t.Fatalf("eq. 10 violated: %d + %d > %d", p.ConvPE, p.FCNPE, spec.DSPSlices)
	}
}

func TestPipelineLatencyIsEq13(t *testing.T) {
	spec := device.VX690T()
	p, _ := NewPipeline(spec, ArchWSSNWS, alexWorkload(), 3)
	for _, b := range []int{1, 4, 16} {
		conv := p.ConvStageTime(b)
		fcn := p.FCNTime(b)
		want := 2 * math.Max(conv, fcn)
		if got := p.Latency(b); math.Abs(got-want) > 1e-12 {
			t.Fatalf("latency(%d) = %v, want %v", b, got, want)
		}
	}
}

func TestInferenceSimFCNShareAndBatching(t *testing.T) {
	spec := device.VX690T()
	net := models.AlexNet()
	noOpt := NewInferenceSim(spec, net, false)
	opt := NewInferenceSim(spec, net, true)
	// Without batch loop, perf/W is ~flat with batch (Fig. 14 FPGA FCN).
	p1 := noOpt.PerfPerWatt(net, 1)
	p32 := noOpt.PerfPerWatt(net, 32)
	if p32 > p1*1.5 {
		t.Fatalf("non-batch FPGA perf/W should stay ~flat: %v -> %v", p1, p32)
	}
	// With the batch loop, batching helps clearly.
	o32 := opt.PerfPerWatt(net, 32)
	if o32 <= p32 {
		t.Fatalf("batch loop should raise FPGA perf/W: %v vs %v", o32, p32)
	}
	// Batch-1 FCN share is substantial (Fig. 12 FPGA side).
	if share := noOpt.NetTime(net, 1).FCNShare(); share < 0.2 {
		t.Fatalf("batch-1 FPGA FCN share = %v, want substantial", share)
	}
}

// Property: pipeline throughput at the returned plan never violates the
// latency requirement, and infeasible results only occur when batch 1
// already misses it.
func TestQuickPlannerSound(t *testing.T) {
	spec := device.VX690T()
	w := alexWorkload()
	archs := []ConvArch{ArchNWS, ArchNWSBatch, ArchWS, ArchWSSNWS}
	f := func(ai uint8, treqMS uint16) bool {
		p, err := NewPipeline(spec, archs[int(ai)%len(archs)], w, 3)
		if err != nil {
			return false
		}
		treq := float64(treqMS%1000+20) / 1000
		r := p.MaxThroughputUnderLatency(treq, 128)
		if r.Feasible {
			return r.Latency <= treq && r.Throughput > 0
		}
		return p.Latency(1) > treq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: WSS group cycles are monotone non-increasing in group size.
func TestQuickWSSGroupMonotone(t *testing.T) {
	e := WSSEngine{Tr: 14, Tc: 14}
	layers := models.AlexNet().ConvLayers()
	f := func(li, g uint8) bool {
		l := layers[int(li)%len(layers)]
		gs := 1 + int(g)%8
		return e.ConvCyclesGroup(l, gs+1) <= e.ConvCyclesGroup(l, gs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
