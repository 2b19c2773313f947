package experiments

import (
	"strings"
	"sync"
	"testing"

	"insitu/internal/core"
	"insitu/internal/fpgasim"
)

// ---- Analytic experiments: cheap, assert paper shapes directly. ----

func TestFig11Shapes(t *testing.T) {
	r := Fig11()
	n := len(r.Batches)
	// Latency rises with batch on both platforms.
	if r.GPULatency[n-1] <= r.GPULatency[0] || r.FPGALat[n-1] <= r.FPGALat[0] {
		t.Fatal("latency should grow with batch")
	}
	// GPU perf/W improves with batch; FPGA (no batch loop) stays ~flat.
	if r.GPUPerfW[n-1] <= r.GPUPerfW[0]*1.5 {
		t.Fatalf("GPU perf/W should clearly improve: %v -> %v", r.GPUPerfW[0], r.GPUPerfW[n-1])
	}
	if r.FPGAPerfW[n-1] > r.FPGAPerfW[0]*1.6 {
		t.Fatalf("FPGA perf/W should stay ~flat: %v -> %v", r.FPGAPerfW[0], r.FPGAPerfW[n-1])
	}
	if !strings.Contains(r.Table().String(), "Fig. 11") {
		t.Fatal("table render broken")
	}
}

func TestFig12Shapes(t *testing.T) {
	r := Fig12()
	// FCN share substantial at batch 1, declining with batch on GPU.
	if r.GPUFCN[0] < 0.25 {
		t.Fatalf("batch-1 GPU FCN share = %v", r.GPUFCN[0])
	}
	if r.GPUFCN[len(r.Batches)-1] >= r.GPUFCN[0] {
		t.Fatal("GPU FCN share should fall with batch")
	}
	if r.FPGAFCN[0] < 0.2 {
		t.Fatalf("batch-1 FPGA FCN share = %v", r.FPGAFCN[0])
	}
	for i := range r.Batches {
		if s := r.GPUFCN[i] + r.GPUConv[i]; s < 0.999 || s > 1.001 {
			t.Fatalf("GPU shares don't sum to 1: %v", s)
		}
	}
}

func TestFig14Shapes(t *testing.T) {
	r := Fig14()
	n := len(r.Batches)
	// GPU: both families improve with batch.
	if r.GPUConvPerfW[n-1] <= r.GPUConvPerfW[0] || r.GPUFCNPerfW[n-1] <= r.GPUFCNPerfW[0] {
		t.Fatal("GPU families should improve with batch")
	}
	// FPGA CONV flat; FCN flat without batch loop, improved with it.
	if r.FPGAConvPerfW[n-1] > r.FPGAConvPerfW[0]*1.3 {
		t.Fatal("FPGA CONV perf/W should be ~flat")
	}
	if r.FPGAFCNOpt[n-1] <= r.FPGAFCNRaw[n-1]*2 {
		t.Fatalf("batch loop should massively improve FPGA FCN: %v vs %v",
			r.FPGAFCNOpt[n-1], r.FPGAFCNRaw[n-1])
	}
}

func TestFig15Shapes(t *testing.T) {
	r := Fig15()
	n := len(r.Batches)
	if r.GPUUtil[n-1] <= r.GPUUtil[0] {
		t.Fatal("GPU utilization should rise with batch")
	}
	for i := 1; i < n; i++ {
		if r.FPGAUtil[i] != r.FPGAUtil[0] {
			t.Fatal("FPGA utilization must be batch-independent")
		}
	}
}

func TestFig16Shapes(t *testing.T) {
	r := Fig16()
	for i := range r.Batches {
		if r.Slowdown[i] < 2 || r.Slowdown[i] > 4 {
			t.Fatalf("slowdown at batch %d = %v, want ~3x", r.Batches[i], r.Slowdown[i])
		}
		if r.CoRun[i] <= r.Solo[i] {
			t.Fatal("co-run must be slower than solo")
		}
	}
}

func TestFig21Shapes(t *testing.T) {
	r := Fig21()
	if r.AvgSpeedup["AlexNet"] < 1.5 {
		t.Fatalf("AlexNet avg speedup = %v", r.AvgSpeedup["AlexNet"])
	}
	if r.AvgSpeedup["VGGNet"] > 2.0 {
		t.Fatalf("VGG avg speedup = %v, want modest", r.AvgSpeedup["VGGNet"])
	}
	// Time model within 10% of brute force everywhere.
	for _, net := range r.Nets {
		for i := range r.Budgets {
			if r.Speedups[net][i] < r.BestCase[net][i]*0.9 {
				t.Fatalf("%s@%v: model %v far from best %v",
					net, r.Budgets[i], r.Speedups[net][i], r.BestCase[net][i])
			}
		}
	}
}

func TestFig22Shapes(t *testing.T) {
	r := Fig22()
	for _, s := range r.Shared {
		res := r.Results[s]
		if !(res["WSS"].Total() < res["NWS"].Total() && res["WSS"].Total() < res["WS"].Total()) {
			t.Fatalf("CONV-%d: WSS not fastest", s)
		}
		if res["WS"].ComputeTime <= res["NWS"].ComputeTime {
			t.Fatalf("CONV-%d: WS should have the worst compute", s)
		}
	}
	// Data time decreases with sharing for WSS.
	if !(r.Results[5]["WSS"].DataTime < r.Results[3]["WSS"].DataTime &&
		r.Results[3]["WSS"].DataTime < r.Results[0]["WSS"].DataTime) {
		t.Fatal("WSS data time should fall with shared layers")
	}
}

func TestFig23Shapes(t *testing.T) {
	r := Fig23()
	// WS infeasible at 50ms.
	if r.Plans[fpgasim.ArchWS][0].Feasible {
		t.Fatal("WS should miss 50ms")
	}
	// WSS-NWS feasible at 50ms and highest throughput everywhere.
	if !r.Plans[fpgasim.ArchWSSNWS][0].Feasible {
		t.Fatal("WSS-NWS should meet 50ms")
	}
	for i := range r.Latencies {
		wss := r.Plans[fpgasim.ArchWSSNWS][i].Throughput
		for _, a := range r.Archs {
			if a == fpgasim.ArchWSSNWS {
				continue
			}
			if p := r.Plans[a][i]; p.Feasible && p.Throughput >= wss {
				t.Fatalf("%s beats WSS-NWS at %v", a, r.Latencies[i])
			}
		}
	}
	// NWS flat; WSS-NWS@50ms beats NWS-batch@800ms.
	nws := r.Plans[fpgasim.ArchNWS]
	if nws[len(nws)-1].Throughput > nws[1].Throughput*1.1 {
		t.Fatal("NWS throughput should be flat")
	}
	nwsB := r.Plans[fpgasim.ArchNWSBatch]
	if r.Plans[fpgasim.ArchWSSNWS][0].Throughput <= nwsB[len(nwsB)-1].Throughput {
		t.Fatal("WSS-NWS@50ms should beat NWS-batch@800ms")
	}
}

func TestAblationSplit(t *testing.T) {
	r := AblationSplit()
	if len(r.Splits) != 3 {
		t.Fatalf("splits = %d", len(r.Splits))
	}
	// The paper's 4:1 split has the least compute time and idleness.
	if !(r.Compute[0] <= r.Compute[1] && r.Compute[0] <= r.Compute[2]) {
		t.Fatalf("paper split not fastest: %v", r.Compute)
	}
	if r.DiagIdle[0] > r.DiagIdle[1] {
		t.Fatalf("paper split idles more than uniform: %v", r.DiagIdle)
	}
}

func TestAblationPipeline(t *testing.T) {
	r := AblationPipeline()
	if r.PlannedB < 1 {
		t.Fatal("planner pick missing")
	}
	// Latency grows with Bsize.
	if r.Latency[len(r.Latency)-1] <= r.Latency[0] {
		t.Fatal("latency should grow with Bsize")
	}
	// Throughput at the planner pick is within the sweep's max.
	var maxThr float64
	for _, thr := range r.Throughput {
		if thr > maxThr {
			maxThr = thr
		}
	}
	if maxThr <= 0 {
		t.Fatal("no throughput measured")
	}
}

// ---- Learning and system experiments: trained once, shared. ----

var (
	tblOnce sync.Once
	tblRes  TableIResult
	sysOnce sync.Once
	sysCmp  *Comparison
)

func tableI(t *testing.T) TableIResult {
	if testing.Short() {
		t.Skip("training experiment")
	}
	tblOnce.Do(func() { tblRes = TableI(Small) })
	return tblRes
}

func systems(t *testing.T) *Comparison {
	if testing.Short() {
		t.Skip("closed-loop experiment")
	}
	sysOnce.Do(func() { sysCmp = RunSystems(SmallSystem) })
	return sysCmp
}

func TestTableIShape(t *testing.T) {
	r := tableI(t)
	if len(r.Models) != 3 {
		t.Fatalf("models = %v", r.Models)
	}
	for _, m := range r.Models {
		if r.IdealAcc[m] < 0.5 {
			t.Fatalf("%s failed to learn ideal data: %v", m, r.IdealAcc[m])
		}
		if r.InSituAcc[m] >= r.IdealAcc[m] {
			t.Fatalf("%s shows no in-situ drop: %v vs %v", m, r.InSituAcc[m], r.IdealAcc[m])
		}
	}
	if !strings.Contains(r.Table().String(), "Table I") {
		t.Fatal("table render broken")
	}
}

func TestTableIIShape(t *testing.T) {
	cmp := systems(t)
	r := TableII(cmp)
	// a/b row is all 1.
	for i, v := range r.AB {
		if v != 1 {
			t.Fatalf("a/b ratio at stage %d = %v", i, v)
		}
	}
	// c/d starts at 1 (bootstrap) and ends below 1.
	if r.CD[0] != 1 {
		t.Fatalf("bootstrap c/d ratio = %v", r.CD[0])
	}
	last := r.CD[len(r.CD)-1]
	if last >= 0.9 {
		t.Fatalf("final c/d ratio = %v, want < 0.9", last)
	}
}

func TestFig25Shape(t *testing.T) {
	cmp := systems(t)
	r := Fig25(cmp)
	a, d := r.EnergyJ[core.SystemCloudAll], r.EnergyJ[core.SystemInSituAI]
	if d >= a {
		t.Fatalf("In-situ AI energy %v not below baseline %v", d, a)
	}
	if r.UpdateSeconds[core.SystemInSituAI] >= r.UpdateSeconds[core.SystemCloudAll] {
		t.Fatal("In-situ AI update time not below baseline")
	}
	if r.DataMovementSaving <= 0 || r.EnergySaving <= 0 {
		t.Fatalf("savings not positive: %v %v", r.DataMovementSaving, r.EnergySaving)
	}
	for _, s := range r.SpeedupVsA {
		if s <= 0 {
			t.Fatalf("speedup %v", s)
		}
	}
}

func TestRenderAllAnalyticTables(t *testing.T) {
	for _, tb := range []interface{ String() string }{
		Fig11().Table(), Fig12().Table(), Fig14().Table(), Fig15().Table(),
		Fig16().Table(), Fig21().Table(), Fig22().Table(), Fig23().Table(),
		AblationSplit().Table(), AblationPipeline().Table(),
	} {
		if len(tb.String()) < 20 {
			t.Fatal("suspiciously short table render")
		}
	}
}

func TestAblationFaultsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop experiment")
	}
	r := AblationFaults(SmallSystem)
	if len(r.Rates) != 4 || r.Rates[0] != 0 {
		t.Fatalf("rates = %v", r.Rates)
	}
	// Fault-free baseline: every deployment lands first try, nothing stale,
	// no retransmits, node at the Cloud's version.
	if r.FailedStages[0] != 0 || r.StaleStages[0] != 0 || r.RetransmitKB[0] != 0 {
		t.Fatalf("fault-free run shows faults: %+v", r)
	}
	if r.NodeVersion[0] != r.CloudVersion[0] {
		t.Fatalf("fault-free node lags cloud: v%d vs v%d", r.NodeVersion[0], r.CloudVersion[0])
	}
	// Under faults the link must have cost something: more deliveries or
	// retransmitted bytes than the baseline at the highest rate.
	last := len(r.Rates) - 1
	if r.Attempts[last] <= r.Attempts[0] && r.RetransmitKB[last] == 0 {
		t.Fatalf("fault sweep shows no link cost: attempts %v retransmit %v", r.Attempts, r.RetransmitKB)
	}
	if !strings.Contains(r.Table().String(), "downlink faults") {
		t.Fatal("table render broken")
	}
}
