package gpusim

import (
	"math"
	"testing"
	"testing/quick"

	"insitu/internal/device"
	"insitu/internal/models"
)

func sim() *Sim { return New(device.TX1()) }

func TestGridSizeGrowsWithBatch(t *testing.T) {
	s := sim()
	l := models.AlexNet().Layers[2] // conv3
	g1 := s.GridSize(l, 1)
	g8 := s.GridSize(l, 8)
	if g8 <= g1 {
		t.Fatalf("grid did not grow with batch: %d vs %d", g1, g8)
	}
	// Eq. (2) exactly: ceil(M/m)·ceil(RC·B/n).
	want := ((l.M + 15) / 16) * ((l.R*l.C*1 + 63) / 64)
	if g1 != want {
		t.Fatalf("grid = %d, want %d", g1, want)
	}
}

func TestUtilizationBounds(t *testing.T) {
	s := sim()
	for _, l := range models.AlexNet().Layers {
		for _, b := range []int{1, 2, 4, 16, 64} {
			u := s.Utilization(l, b)
			if u <= 0 || u > 1 {
				t.Fatalf("util(%s, %d) = %v", l.Name, b, u)
			}
		}
	}
}

func TestUtilizationTrendsUpWithBatch(t *testing.T) {
	// The Fig. 15 claim: GPU utilization at batch 64 clearly exceeds
	// batch-1 utilization for the whole network (weighted by ops).
	s := sim()
	avgUtil := func(batch int) float64 {
		var num, den float64
		for _, l := range models.AlexNet().Layers {
			ops := float64(l.Ops())
			num += s.Utilization(l, batch) * ops
			den += ops
		}
		return num / den
	}
	if u1, u64 := avgUtil(1), avgUtil(64); u64 <= u1 {
		t.Fatalf("utilization not improved by batching: %v -> %v", u1, u64)
	}
}

func TestCTMGrowsWithBatchForFCN(t *testing.T) {
	fc := models.FCSpec("fc6", 9216, 4096)
	c1 := CTM(fc, 1)
	c32 := CTM(fc, 32)
	if c32 <= c1*8 {
		t.Fatalf("FCN CTM should grow ~linearly with batch: %v -> %v", c1, c32)
	}
	// At batch 1, an FC layer re-reads all weights for a single vector:
	// CTM ≈ 2 ops per weight element.
	if c1 < 1 || c1 > 3 {
		t.Fatalf("batch-1 FCN CTM = %v, want ≈2", c1)
	}
}

func TestFCNMemoryBoundAtSmallBatch(t *testing.T) {
	s := sim()
	fc := models.FCSpec("fc6", 9216, 4096)
	r1 := s.LayerTime(fc, 1)
	if !r1.MemoryBound {
		t.Fatal("batch-1 FCN should be memory-bound on TX1")
	}
	r128 := s.LayerTime(fc, 128)
	if r128.AchievedOPS <= r1.AchievedOPS {
		t.Fatalf("batching did not improve achieved FCN ops: %v -> %v", r1.AchievedOPS, r128.AchievedOPS)
	}
}

func TestConvComputeBound(t *testing.T) {
	s := sim()
	conv := models.AlexNet().Layers[1] // conv2
	if r := s.LayerTime(conv, 4); r.MemoryBound {
		t.Fatal("conv2 should be compute-bound on TX1")
	}
}

func TestLatencyGrowsWithBatch(t *testing.T) {
	// Fig. 11: batch latency rises with batch size.
	s := sim()
	spec := models.AlexNet()
	prev := 0.0
	for _, b := range []int{1, 2, 4, 8, 16, 32} {
		lat := s.NetTime(spec, b).Latency()
		if lat <= prev {
			t.Fatalf("latency not increasing at batch %d: %v <= %v", b, lat, prev)
		}
		prev = lat
	}
}

func TestPerfPerWattImprovesWithBatch(t *testing.T) {
	// Fig. 11: GPU energy-efficiency improves with batch size.
	s := sim()
	spec := models.AlexNet()
	p1 := s.PerfPerWatt(spec, 1)
	p32 := s.PerfPerWatt(spec, 32)
	if p32 <= p1 {
		t.Fatalf("perf/W did not improve: %v -> %v", p1, p32)
	}
}

func TestAlexNetBatch1LatencyPlausible(t *testing.T) {
	// TX1 measurements put AlexNet batch-1 inference in the tens of
	// milliseconds. The model should land in [5ms, 100ms].
	s := sim()
	lat := s.NetTime(models.AlexNet(), 1).Latency()
	if lat < 5e-3 || lat > 100e-3 {
		t.Fatalf("AlexNet batch-1 latency = %v s, implausible for TX1", lat)
	}
}

func TestFCNShareMatchesFig12(t *testing.T) {
	// Fig. 12: FCN layers account for up to ~50% of runtime at small
	// batches, and their share falls as batch grows.
	s := sim()
	spec := models.AlexNet()
	small := s.NetTime(spec, 1).FCNShare()
	large := s.NetTime(spec, 64).FCNShare()
	if small < 0.25 {
		t.Fatalf("batch-1 FCN share = %v, want substantial (~0.5)", small)
	}
	if large >= small {
		t.Fatalf("FCN share should fall with batch: %v -> %v", small, large)
	}
}

func TestMemoryUseAndEq9(t *testing.T) {
	s := sim()
	spec := models.AlexNet()
	if !s.FitsMemory(spec, 1) {
		t.Fatal("batch 1 must fit TX1 memory")
	}
	m1 := MemoryUse(spec, 1)
	m64 := MemoryUse(spec, 64)
	if m64 <= m1 {
		t.Fatal("memory use must grow with batch")
	}
	maxB := s.MaxBatchForMemory(spec, 4096)
	if maxB < 1 {
		t.Fatal("no feasible batch")
	}
	if s.FitsMemory(spec, maxB+1) && maxB != 4096 {
		t.Fatalf("MaxBatchForMemory(%d) not maximal", maxB)
	}
}

func TestCoRunSlowdownShape(t *testing.T) {
	m := DefaultInterference()
	if m.CoRunSlowdown(0) != 1 {
		t.Fatal("no load must mean no slowdown")
	}
	if s := m.CoRunSlowdown(1); s < 1.5 || s > 2.5 {
		t.Fatalf("equal-load slowdown = %v, want ~1.85×", s)
	}
	if m.CoRunSlowdown(2) <= m.CoRunSlowdown(1) {
		t.Fatal("slowdown must grow with load")
	}
}

func TestFig16InterferenceUpTo3x(t *testing.T) {
	// The paper measures up to 3× inference slowdown from co-running
	// diagnosis on the GPU (AlexNet + its 9-patch diagnosis network).
	s := sim()
	inf := models.AlexNet()
	diag := models.DiagnosisSpec(inf, 100)
	m := DefaultInterference()
	solo := s.NetTime(inf, 1).TotalTime()
	co := s.CoRunInferenceLatency(inf, diag, 1, m)
	factor := co / solo
	if factor < 2 || factor > 4 {
		t.Fatalf("co-run slowdown = %vx, want ~3x", factor)
	}
}

func TestDiagnosisLoadPositive(t *testing.T) {
	inf := models.AlexNet()
	diag := models.DiagnosisSpec(inf, 100)
	load := DiagnosisLoad(inf, diag)
	if load <= 0.5 || load > 5 {
		t.Fatalf("diagnosis load = %v, implausible", load)
	}
}

// Property: eq. (6) — the achieved performance never exceeds either roof.
func TestQuickRooflineNeverExceeded(t *testing.T) {
	s := sim()
	layers := models.AlexNet().Layers
	f := func(li, batch uint8) bool {
		l := layers[int(li)%len(layers)]
		b := 1 + int(batch)%128
		r := s.LayerTime(l, b)
		computeRoof := s.Spec.MaxOPS() * r.Utilization
		bwRoof := CTM(l, b) * s.Spec.MemBandwidth / 4
		return r.AchievedOPS <= computeRoof+1 && r.AchievedOPS <= bwRoof+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: batch latency is monotone non-decreasing in batch size for
// every layer.
func TestQuickLatencyMonotone(t *testing.T) {
	s := sim()
	layers := models.AlexNet().Layers
	f := func(li, batch uint8) bool {
		l := layers[int(li)%len(layers)]
		b := 1 + int(batch)%64
		return s.LayerTime(l, b+1).Time >= s.LayerTime(l, b).Time-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceSpecs(t *testing.T) {
	tx1 := device.TX1()
	if ops := tx1.MaxOPS(); math.Abs(ops-511e9)/511e9 > 0.05 {
		t.Fatalf("TX1 maxOPS = %v, want ~511 GFLOPS", ops)
	}
	titan := device.TitanX()
	if titan.MaxOPS() <= 10*tx1.MaxOPS() {
		t.Fatal("TitanX should be >10x TX1")
	}
}
