package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"insitu/internal/ckpt"
	"insitu/internal/dataset"
	"insitu/internal/fleet"
	"insitu/internal/models"
	"insitu/internal/nn"
	"insitu/internal/quant"
	"insitu/internal/telemetry"
	"insitu/internal/tensor"
)

// enableTelemetry points the four instrumented layers at reg (nil turns
// them off again).
func enableTelemetry(reg *telemetry.Registry) {
	tensor.EnableTelemetry(reg)
	nn.EnableTelemetry(reg)
	fleet.EnableTelemetry(reg)
	ckpt.EnableTelemetry(reg)
}

// probeSizes are the traced run's fixed costs; quick shrinks them.
type probeSizes struct {
	peakSeconds     float64 // MatMulInto 512³ probe length
	predictImages   int     // images per predict probe
	transportRounds int     // rounds on each side of the transport probe
}

func probesFor(quick bool) probeSizes {
	if quick {
		return probeSizes{peakSeconds: 0.05, predictImages: 32, transportRounds: 1}
	}
	return probeSizes{peakSeconds: 1, predictImages: 256, transportRounds: 3}
}

// runTraced gives the per-layer metrics. It measures a quarter of the
// untraced run's rounds twice on one fleet — first with telemetry off
// (the reference), then with one registry on all four instrumented
// layers and harness spans around every fleet call (run A) — and then
// replays one round stage by stage from the layers' public functions
// (run B). traceDir, when set, receives the spans as JSONL.
func runTraced(w workload, seed uint64, quick bool, traceDir string) (runResult, error) {
	chk := &checker{w: w}
	rec := newRecorder()
	probes := probesFor(quick)
	rounds := max(1, w.Replicas*w.Rounds/4)

	s, _, err := openSession(w, w.config(seed, 0), chk, rec)
	if err != nil {
		return runResult{}, err
	}
	var ckptBuf bytes.Buffer
	var refWalls, walls, ckptSeconds, ckptKB, admitted []float64
	var unrecognized, captured int
	var upBytes int64
	measure := func(into *[]float64) {
		ckptBuf.Reset()
		smp := s.measure(&ckptBuf)
		*into = append(*into, smp.wall)
		ckptSeconds = append(ckptSeconds, smp.ckptSeconds)
		ckptKB = append(ckptKB, float64(smp.ckptBytes)/1024)
		admitted = append(admitted, float64(smp.rep.Admitted))
		for _, nr := range smp.rep.Nodes {
			unrecognized += nr.Uploaded - nr.CalibUploaded
			captured += nr.Captured
			upBytes += nr.UploadedBytes
		}
	}
	for k := 0; k < rounds; k++ {
		measure(&refWalls)
	}
	reg := telemetry.NewRegistry()
	enableTelemetry(reg)
	for k := 0; k < rounds; k++ {
		measure(&walls)
	}
	enableTelemetry(nil)
	admitP99 := s.f.AdmitLatencyP99()

	// The read beside the write: rebuild a fleet from the last checkpoint
	// (checkpoints are portable, so a wire fleet's restores in process).
	var resumed *fleet.Fleet
	var restoreErr error
	restoreSeconds := rec.timed("fleet.resume", s.trace(), 0, func() {
		resumed, restoreErr = fleet.Resume(w.config(seed, 0), bytes.NewReader(ckptBuf.Bytes()))
	})
	chk.attempted++
	if restoreErr != nil {
		chk.fail("resume from the last checkpoint: %v", restoreErr)
	} else {
		resumed.Close()
	}
	s.close()

	roundP50 := median(walls)
	uploadFrac := float64(unrecognized) / float64(2*rounds*w.Nodes*w.Capture)
	replay := stagedReplay(w, seed, max(1, int(median(admitted))), uploadFrac, rec)
	par := float64(min(2, runtime.GOMAXPROCS(0))) // Shards=2, or two agents
	predicted := replay.nodeSeconds*float64(w.Nodes)/par + replay.cloudSeconds
	reconcile := predicted / roundP50
	traceValid := reconcile >= 0.8 && reconcile <= 1.25

	values := replay.metrics
	countedMetrics(values, reg.Snapshot(), rounds)
	gflop := values["tensor.gemm_gflop_per_round"]
	peak := peakGflops(probes.peakSeconds, rec, w.Name)
	values["tensor.peak_gflops"] = peak
	values["tensor.achieved_gflops"] = gflop / roundP50
	values["tensor.peak_frac"] = gflop / roundP50 / peak
	predictProbes(values, w, seed, probes.predictImages, rec)

	values["fleet.uplink_bytes_per_image"] = float64(upBytes) / float64(captured)
	values["fleet.admit_p99_s"] = admitP99
	values["fleet.ckpt_save_s_p50"] = median(ckptSeconds)
	values["fleet.ckpt_restore_s"] = restoreSeconds
	values["fleet.node_state_kb"] = ckptKB[len(ckptKB)-1] / float64(w.Nodes)
	values["fleet.ckpt_growth_kb_per_round"] = slope(ckptKB)
	values["fleet.reconcile_ratio"] = reconcile
	values["trace.overhead_frac"] = roundP50/median(refWalls) - 1

	local, remote, err := transportProbe(seed, quick, probes.transportRounds, chk)
	if err != nil {
		return runResult{}, err
	}
	values["wire.round_overhead_s"] = remote - local

	var accuracies []float64
	for _, rep := range s.reports[len(s.reports)-2*rounds:] {
		accuracies = append(accuracies, rep.MeanAccuracy)
	}
	chk.accuracy(mean(accuracies))
	if traceDir != "" {
		if err := writeTrace(filepath.Join(traceDir, w.Name+".jsonl"), rec.spans); err != nil {
			return runResult{}, err
		}
	}
	return runResult{
		Workload: w.Name, Seed: seed, Traced: true,
		Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Problems: chk.problems,
		Metrics:      metricSet(perLayer, values),
		Samples:      map[string]int{"reference_rounds": rounds, "counted_rounds": rounds, "replayed_nodes": min(w.Nodes, maxReplayNodes), "spans": len(rec.spans)},
		ReportDigest: reportDigest(s.reports),
		TraceValid:   &traceValid,
		Detail: map[string]float64{
			"round_s_p50_reference":       median(refWalls),
			"round_s_p50_counted":         roundP50,
			"replay_predicted_round_s":    predicted,
			"replay_node_s":               replay.nodeSeconds,
			"replay_cloud_s":              replay.cloudSeconds,
			"share_node_diagnosis_nn":     replay.nodeDiagnosisNN * float64(w.Nodes) / par / predicted,
			"share_cloud_jigsaw_transfer": replay.cloudTraining / predicted,
			"transport_local_round_s":     local,
			"transport_wire_round_s":      remote,
		},
	}, nil
}

// countedMetrics fills in what run A's registry counted, per round.
func countedMetrics(values map[string]float64, counted telemetry.Snapshot, rounds int) {
	perRound := func(name string) float64 { return float64(counted.Counters[name]) / float64(rounds) }
	frac := func(part, whole float64) float64 {
		if whole == 0 {
			return 0
		}
		return part / whole
	}
	small := perRound("tensor_gemm_small_calls_total")
	gemmCalls := perRound("tensor_gemm_calls_total") + small
	inline := perRound("tensor_pool_tiles_inline_total") + perRound("tensor_pool_chunks_inline_total")
	parallel := perRound("tensor_pool_tiles_parallel_total") + perRound("tensor_pool_chunks_parallel_total")
	values["tensor.gemm_gflop_per_round"] = perRound("tensor_gemm_flops_total") / 1e9
	values["tensor.gemm_calls_per_round"] = gemmCalls
	values["tensor.gemm_small_call_frac"] = frac(small, gemmCalls)
	values["tensor.im2col_calls_per_round"] = perRound("tensor_im2col_calls_total")
	values["tensor.pack_mb_per_round"] = perRound("tensor_pack_bytes_total") / mb
	values["tensor.workspace_miss_frac"] = frac(perRound("tensor_workspace_misses_total"), perRound("tensor_workspace_gets_total"))
	values["tensor.pool_inline_frac"] = frac(inline, inline+parallel)

	var fwd, bwd, conv float64 // seconds over the counted rounds
	for name, h := range counted.Histograms {
		seconds := h.Sum / 1e6
		layer, ok := strings.CutPrefix(name, "nn_forward_us_")
		if ok {
			fwd += seconds
		} else if layer, ok = strings.CutPrefix(name, "nn_backward_us_"); ok {
			bwd += seconds
		} else {
			continue
		}
		if strings.HasPrefix(layer, "conv") {
			conv += seconds
		}
	}
	values["nn.fwd_s_per_round"] = fwd / float64(rounds)
	values["nn.bwd_s_per_round"] = bwd / float64(rounds)
	values["nn.conv_share"] = frac(conv, fwd+bwd)
	values["nn.train_steps_per_round"] = perRound("nn_train_steps_total")
	values["nn.eval_batches_per_round"] = perRound("nn_eval_batches_total")
	values["fleet.batches_per_round"] = perRound("fleet_batches_total")
	values["fleet.msgs_per_batch"] = frac(perRound("fleet_batched_messages_total"), perRound("fleet_batches_total"))
}

// peakGflops runs MatMulInto on 512³ operands for about the given time:
// the kernel peak the achieved rate is read against.
func peakGflops(seconds float64, rec *recorder, name string) float64 {
	const n = 512
	a, b, c := tensor.New(n, n), tensor.New(n, n), tensor.New(n, n)
	for i := range a.Data {
		a.Data[i], b.Data[i] = float32(i%7), float32(i%5)
	}
	tensor.MatMulInto(c, a, b) // first call sizes the packing buffers
	calls := 0
	spent := rec.timed("tensor.peak_probe", name+"/probe", 0, func() {
		for start := time.Now(); time.Since(start).Seconds() < seconds; calls++ {
			tensor.MatMulInto(c, a, b)
		}
	})
	return float64(calls) * 2 * n * n * n / spent / 1e9
}

// predictProbes times the inference net per image at batch 1 and batch
// 32, and its int8 deployment at batch 1.
func predictProbes(values map[string]float64, w workload, seed uint64, images int, rec *recorder) {
	cfg := w.config(seed, 0)
	trace := w.Name + "/probe"
	net := models.TinyAlex(cfg.Classes, cfg.Seed+3)
	set := dataset.NewGenerator(cfg.Classes, cfg.Seed+101).MixedSet(images, cfg.InSituFrac, cfg.Severity)
	single := make([]*tensor.Tensor, len(set))
	for i, smp := range set {
		single[i] = smp.Image.Reshape(append([]int{1}, smp.Image.Shape()...)...)
	}
	var batches []*tensor.Tensor
	for i := 0; i+32 <= len(set); i += 32 {
		x, _ := dataset.Batch(set[i : i+32])
		batches = append(batches, x)
	}
	int8net := quant.Quantize(net)
	net.Predict(single[0]) // warm the workspaces
	int8net.Predict(single[0])
	perImage := func(name string, n int, fn func()) float64 {
		return rec.timed(name, trace, 0, fn) / float64(n) * 1e6
	}
	b1 := perImage("nn.predict_b1", len(single), func() {
		for _, x := range single {
			net.Predict(x)
		}
	})
	b32 := perImage("nn.predict_b32", 32*len(batches), func() {
		for _, x := range batches {
			net.Predict(x)
		}
	})
	q1 := perImage("quant.int8_predict_b1", len(single), func() {
		for _, x := range single {
			int8net.Predict(x)
		}
	})
	values["nn.predict_us_b1"] = b1
	values["nn.predict_us_b32"] = b32
	values["quant.int8_predict_us_b1"] = q1
	values["quant.int8_speedup_b1"] = b1 / q1
}

// transportProbe measures the transport's cost by itself: cloud-bound's
// configuration run in process and over loopback TCP, median round time
// of each.
func transportProbe(seed uint64, quick bool, rounds int, chk *checker) (local, remote float64, err error) {
	base, _ := workloadByName("cloud-bound")
	if quick {
		base = base.quick()
	}
	side := func(wire bool) (float64, error) {
		w := base
		w.Wire = wire
		s, _, err := openSession(w, w.config(seed, 0), &checker{w: w}, nil)
		if err != nil {
			return 0, err
		}
		var walls []float64
		for k := 0; k < rounds; k++ {
			_, wall := s.runRound()
			walls = append(walls, wall)
		}
		s.close()
		chk.absorb(s.chk)
		return median(walls), nil
	}
	if local, err = side(false); err != nil {
		return 0, 0, err
	}
	if remote, err = side(true); err != nil {
		return 0, 0, err
	}
	return local, remote, nil
}

// writeTrace writes spans to path as JSONL.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeJSONL(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
