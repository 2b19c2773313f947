// Package insitu_bench is the benchmark harness of the reproduction: one
// benchmark per table and figure of the paper's evaluation. Each
// benchmark regenerates its artifact (printing the table on first run)
// and reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's evaluation section end to end. The heavyweight
// learning/closed-loop experiments are computed once and cached across
// b.N iterations; the analytic experiments are cheap enough to run per
// iteration.
package insitu_bench

import (
	"fmt"
	"sync"
	"testing"

	"insitu/internal/experiments"
	"insitu/internal/fpgasim"
	"insitu/internal/models"
	"insitu/internal/tensor"
)

var printOnce sync.Map

// printTable prints a rendered table exactly once per benchmark name.
func printTable(name, rendered string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n%s\n", rendered)
	}
}

// ---- Hot path: one SGD step of the reference model. ----

// BenchmarkTrainStep measures the end-to-end cost of a single training
// step on TinyAlex — forward, backward, and optimizer update — which is
// the quantity every in-situ incremental-update experiment ultimately
// pays per sample batch. It exercises the blocked matmul/im2col kernel
// layer and its workspace pools directly.
func BenchmarkTrainStep(b *testing.B) {
	const batch = 8
	net := models.TinyAlex(10, 7)
	rng := tensor.NewRNG(7)
	x := tensor.New(batch, models.ImgChannels, models.ImgSize, models.ImgSize)
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

// ---- Table I and Figs. 5–7: learning experiments (cached). ----

var (
	tableIOnce sync.Once
	tableIRes  experiments.TableIResult
)

func BenchmarkTableI(b *testing.B) {
	tableIOnce.Do(func() { tableIRes = experiments.TableI(experiments.Paper) })
	printTable("tableI", tableIRes.Table().String())
	for i := 0; i < b.N; i++ {
		_ = tableIRes.Table().String()
	}
	b.ReportMetric(tableIRes.IdealAcc["AlexNet"]*100, "alex-ideal-%")
	b.ReportMetric(tableIRes.InSituAcc["AlexNet"]*100, "alex-insitu-%")
}

var (
	fig5Once sync.Once
	fig5Res  experiments.Fig5Result
)

func BenchmarkFig5(b *testing.B) {
	fig5Once.Do(func() { fig5Res = experiments.Fig5(experiments.Paper) })
	printTable("fig5", fig5Res.Table().String())
	for i := 0; i < b.N; i++ {
		_ = fig5Res.Table().String()
	}
	n := len(fig5Res.Checkpoints)
	b.ReportMetric((fig5Res.StrongPre[n-1]-fig5Res.Scratch[n-1])*100, "transfer-gain-%")
}

var (
	fig6Once sync.Once
	fig6Res  experiments.Fig6Result
)

func BenchmarkFig6(b *testing.B) {
	fig6Once.Do(func() { fig6Res = experiments.Fig6(experiments.Paper) })
	printTable("fig6", fig6Res.Table().String())
	for i := 0; i < b.N; i++ {
		_ = fig6Res.Table().String()
	}
	b.ReportMetric(fig6Res.ModelSpeedup[3], "conv3-speedup-x")
}

var (
	fig7Once sync.Once
	fig7Res  experiments.Fig7Result
)

func BenchmarkFig7(b *testing.B) {
	fig7Once.Do(func() { fig7Res = experiments.Fig7(experiments.Paper) })
	printTable("fig7", fig7Res.Table().String())
	for i := 0; i < b.N; i++ {
		_ = fig7Res.Table().String()
	}
	b.ReportMetric(fig7Res.Accuracy["Net-Err"]*100, "net-err-acc-%")
	b.ReportMetric(fig7Res.Accuracy["Net-all"]*100, "net-all-acc-%")
}

// ---- Figs. 11–23: analytic characterization (cheap, per-iteration). ----

func BenchmarkFig11(b *testing.B) {
	var r experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig11()
	}
	printTable("fig11", r.Table().String())
	b.ReportMetric(r.GPUPerfW[len(r.Batches)-1]/r.GPUPerfW[0], "gpu-ppw-gain-x")
}

func BenchmarkFig12(b *testing.B) {
	var r experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig12()
	}
	printTable("fig12", r.Table().String())
	b.ReportMetric(r.GPUFCN[0]*100, "batch1-fcn-share-%")
}

func BenchmarkFig14(b *testing.B) {
	var r experiments.Fig14Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig14()
	}
	printTable("fig14", r.Table().String())
	n := len(r.Batches)
	b.ReportMetric(r.FPGAFCNOpt[n-1]/r.FPGAFCNRaw[n-1], "batchloop-gain-x")
}

func BenchmarkFig15(b *testing.B) {
	var r experiments.Fig15Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig15()
	}
	printTable("fig15", r.Table().String())
	b.ReportMetric(r.GPUUtil[len(r.Batches)-1], "gpu-util-batch128")
}

func BenchmarkFig16(b *testing.B) {
	var r experiments.Fig16Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig16()
	}
	printTable("fig16", r.Table().String())
	b.ReportMetric(r.Slowdown[0], "corun-slowdown-x")
}

func BenchmarkFig21(b *testing.B) {
	var r experiments.Fig21Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig21()
	}
	printTable("fig21", r.Table().String())
	b.ReportMetric(r.AvgSpeedup["AlexNet"], "alex-speedup-x")
	b.ReportMetric(r.AvgSpeedup["VGGNet"], "vgg-speedup-x")
}

func BenchmarkFig22(b *testing.B) {
	var r experiments.Fig22Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig22()
	}
	printTable("fig22", r.Table().String())
	nws := r.Results[3]["NWS"].Total()
	wss := r.Results[3]["WSS"].Total()
	b.ReportMetric(nws/wss, "wss-vs-nws-x")
}

func BenchmarkFig23(b *testing.B) {
	var r experiments.Fig23Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig23()
	}
	printTable("fig23", r.Table().String())
	b.ReportMetric(r.Plans[fpgasim.ArchWSSNWS][0].Throughput, "wss-nws@50ms-img/s")
}

// ---- Table II and Fig. 25: closed-loop system comparison (cached). ----

var (
	sysOnce sync.Once
	sysCmp  *experiments.Comparison
)

func systems() *experiments.Comparison {
	sysOnce.Do(func() { sysCmp = experiments.RunSystems(experiments.PaperSystem) })
	return sysCmp
}

func BenchmarkTableII(b *testing.B) {
	cmp := systems()
	var r experiments.TableIIResult
	for i := 0; i < b.N; i++ {
		r = experiments.TableII(cmp)
	}
	printTable("tableII", r.Table().String())
	b.ReportMetric(r.CD[len(r.CD)-1], "final-cd-ratio")
}

func BenchmarkFig25(b *testing.B) {
	cmp := systems()
	var r experiments.Fig25Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig25(cmp)
	}
	printTable("fig25", r.Table().String())
	b.ReportMetric(r.DataMovementSaving*100, "data-saving-%")
	b.ReportMetric(r.EnergySaving*100, "energy-saving-%")
	if n := len(r.SpeedupVsA); n > 0 {
		b.ReportMetric(r.SpeedupVsA[n-1], "update-speedup-x")
	}
}

// ---- Ablations. ----

func BenchmarkAblationSplit(b *testing.B) {
	var r experiments.AblationSplitResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationSplit()
	}
	printTable("ablation-split", r.Table().String())
	b.ReportMetric(r.Compute[1]/r.Compute[0], "uniform-vs-paper-x")
}

var (
	ablThrOnce sync.Once
	ablThrRes  experiments.AblationThresholdResult
)

func BenchmarkAblationThreshold(b *testing.B) {
	ablThrOnce.Do(func() { ablThrRes = experiments.AblationThreshold(experiments.Paper) })
	printTable("ablation-threshold", ablThrRes.Table().String())
	for i := 0; i < b.N; i++ {
		_ = ablThrRes.Table().String()
	}
	b.ReportMetric(ablThrRes.Recall[2], "recall@0.5")
}

var (
	ablPermOnce sync.Once
	ablPermRes  experiments.AblationPermsResult
)

func BenchmarkAblationPerms(b *testing.B) {
	ablPermOnce.Do(func() { ablPermRes = experiments.AblationPerms(experiments.Paper) })
	printTable("ablation-perms", ablPermRes.Table().String())
	for i := 0; i < b.N; i++ {
		_ = ablPermRes.Table().String()
	}
	b.ReportMetric(ablPermRes.Transfer[len(ablPermRes.Transfer)-1], "transfer-acc")
}

var (
	ablDriftOnce sync.Once
	ablDriftRes  experiments.DriftResult
)

func BenchmarkAblationDrift(b *testing.B) {
	ablDriftOnce.Do(func() { ablDriftRes = experiments.AblationDrift(experiments.PaperSystem) })
	printTable("ablation-drift", ablDriftRes.Table().String())
	for i := 0; i < b.N; i++ {
		_ = ablDriftRes.Table().String()
	}
	n := len(ablDriftRes.Severities)
	b.ReportMetric((ablDriftRes.InSituAcc[n-1]-ablDriftRes.StaticAcc[n-1])*100, "adaptation-gain-%")
}

var (
	ablQuantOnce sync.Once
	ablQuantRes  experiments.QuantResult
)

func BenchmarkAblationQuant(b *testing.B) {
	ablQuantOnce.Do(func() { ablQuantRes = experiments.AblationQuant(experiments.Paper) })
	printTable("ablation-quant", ablQuantRes.Table().String())
	for i := 0; i < b.N; i++ {
		_ = ablQuantRes.Table().String()
	}
	n := len(ablQuantRes.Accuracy)
	b.ReportMetric(ablQuantRes.Accuracy[n-1]*100, "int8-acc-%")
	b.ReportMetric(ablQuantRes.LatencyMS[n-1], "int8-ms-per-img")
}

func BenchmarkAblationPipeline(b *testing.B) {
	var r experiments.AblationPipelineResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationPipeline()
	}
	printTable("ablation-pipeline", r.Table().String())
	b.ReportMetric(float64(r.PlannedB), "planned-bsize")
}

var (
	ablFaultsOnce sync.Once
	ablFaultsRes  experiments.FaultsResult
)

// BenchmarkAblationFaults sweeps the downlink fault rate against node
// accuracy and data movement: the closed loop's resilience curve (retry,
// rollback, graceful degradation) under an imperfect OTA link.
func BenchmarkAblationFaults(b *testing.B) {
	ablFaultsOnce.Do(func() { ablFaultsRes = experiments.AblationFaults(experiments.PaperSystem) })
	printTable("ablation-faults", ablFaultsRes.Table().String())
	for i := 0; i < b.N; i++ {
		_ = ablFaultsRes.Table().String()
	}
	n := len(ablFaultsRes.Rates)
	b.ReportMetric(ablFaultsRes.Accuracy[n-1], "faulty-acc")
	b.ReportMetric(ablFaultsRes.Accuracy[0]-ablFaultsRes.Accuracy[n-1], "acc-loss-at-0.6")
	b.ReportMetric(ablFaultsRes.RetransmitKB[n-1], "retransmit-KB")
}

var (
	ablFleetOnce sync.Once
	ablFleetRes  experiments.FleetResult
)

// BenchmarkAblationFleet sweeps fleet sizes through the concurrent
// multi-node deployment: aggregate node throughput should scale with N
// while the per-node costs stay flat.
func BenchmarkAblationFleet(b *testing.B) {
	scale := experiments.PaperFleet
	if testing.Short() {
		scale = experiments.SmallFleet
	}
	ablFleetOnce.Do(func() { ablFleetRes = experiments.AblationFleet(scale) })
	printTable("ablation-fleet", ablFleetRes.Table().String())
	for i := 0; i < b.N; i++ {
		_ = ablFleetRes.Table().String()
	}
	last := ablFleetRes.Rows[len(ablFleetRes.Rows)-1]
	b.ReportMetric(float64(last.Nodes), "max-nodes")
	b.ReportMetric(last.Speedup, "speedup-at-max-N")
	b.ReportMetric(last.Throughput, "imgs/s-at-max-N")
}
