package main

// metricDef names one reported number. BENCHMARK.json lists the same
// names, units, directions and bounds; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before -compare calls it regressed.
	Bound float64
	// Moves says, for a layer metric, which end-to-end metric it should
	// move and on which workload — written down before measuring.
	Moves string
}

// endToEnd is what a user of the fleet sees, as far as it can be held to
// a bound. Two more are reported beside these: failed_ops_frac is 0 on
// every workload, so it travels as the result line's failed/attempted;
// and uplink bytes per image swings by a quarter from seed to seed (a
// two-node fleet calibrates its diagnosis threshold on 24 images a
// round), so it is the layer metric fleet.uplink_bytes_per_image.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "round_s_p50", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "images_per_s", Unit: "img/s", Better: "higher", Bound: 0.25},
	{Name: "accuracy", Unit: "fraction", Better: "higher", Bound: 0.20},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "ckpt_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer comes from the traced run: (A) the counted run's telemetry
// registry and harness spans, (B) the staged replay and probes. The
// prefix of a name is the repo module it measures.
var perLayer = []metricDef{
	{Name: "tensor.gemm_gflop_per_round", Unit: "GFLOP", Better: "lower", Moves: "images_per_s on node-bound (small GEMMs) and cloud-bound (large); none on many-nodes"},
	{Name: "tensor.gemm_calls_per_round", Unit: "count", Better: "lower", Moves: "images_per_s on node-bound and cloud-bound"},
	{Name: "tensor.gemm_small_call_frac", Unit: "fraction", Better: "lower", Moves: "images_per_s on node-bound: batching turns small calls into blocked ones"},
	{Name: "tensor.im2col_calls_per_round", Unit: "count", Better: "lower", Moves: "images_per_s on node-bound and cloud-bound"},
	{Name: "tensor.pack_mb_per_round", Unit: "MB", Better: "lower", Moves: "round_s_p50 on cloud-bound"},
	{Name: "tensor.workspace_miss_frac", Unit: "fraction", Better: "lower", Moves: "live_heap_mb and round_s_p50 on node-bound"},
	{Name: "tensor.peak_gflops", Unit: "GFLOP/s", Better: "higher", Moves: "round_s_p50 on cloud-bound first"},
	{Name: "tensor.achieved_gflops", Unit: "GFLOP/s", Better: "higher", Moves: "round_s_p50 on cloud-bound first"},
	{Name: "tensor.peak_frac", Unit: "fraction", Better: "higher", Moves: "round_s_p50 on cloud-bound first"},
	{Name: "tensor.pool_inline_frac", Unit: "fraction", Better: "lower", Moves: "round_s_p50 on node-bound at GOMAXPROCS >= 2"},

	{Name: "nn.fwd_s_per_round", Unit: "s", Better: "lower", Moves: "images_per_s on node-bound"},
	{Name: "nn.bwd_s_per_round", Unit: "s", Better: "lower", Moves: "round_s_p50 on cloud-bound"},
	{Name: "nn.conv_share", Unit: "fraction", Better: "lower", Moves: "round_s_p50 on cloud-bound and node-bound: where a conv kernel change lands"},
	{Name: "nn.train_steps_per_round", Unit: "count", Better: "lower", Moves: "round_s_p50 on cloud-bound and wire-2node"},
	{Name: "nn.eval_batches_per_round", Unit: "count", Better: "lower", Moves: "images_per_s on node-bound"},
	{Name: "nn.predict_us_b1", Unit: "us", Better: "lower", Moves: "images_per_s on node-bound"},
	{Name: "nn.predict_us_b32", Unit: "us", Better: "lower", Moves: "images_per_s on node-bound: b1/b32 is the batching headroom"},

	{Name: "dataset.render_us_per_image", Unit: "us", Better: "lower", Moves: "round_s_p50 on many-nodes (14 renders per 2 captures)"},

	{Name: "diagnosis.score_us", Unit: "us", Better: "lower", Moves: "images_per_s on node-bound; flat on cloud-bound"},
	{Name: "diagnosis.score_calls_per_image", Unit: "count", Better: "lower", Moves: "images_per_s on node-bound (2.0 until Measure and Split share scores)"},
	{Name: "diagnosis.measure_us_per_image", Unit: "us", Better: "lower", Moves: "images_per_s on node-bound; flat on cloud-bound"},
	{Name: "diagnosis.split_us_per_image", Unit: "us", Better: "lower", Moves: "images_per_s on node-bound; flat on cloud-bound"},
	{Name: "diagnosis.calibrate_ms", Unit: "ms", Better: "lower", Moves: "round_s_p50 on cloud-bound, slightly"},

	{Name: "jigsaw.step_ms", Unit: "ms", Better: "lower", Moves: "round_s_p50 on cloud-bound and wire-2node; a quarter weight on node-bound"},
	{Name: "jigsaw.update_s_per_round", Unit: "s", Better: "lower", Moves: "round_s_p50 on cloud-bound and wire-2node; a quarter weight on node-bound"},
	{Name: "transfer.finetune_step_ms", Unit: "ms", Better: "lower", Moves: "round_s_p50 on cloud-bound and wire-2node; a quarter weight on node-bound"},
	{Name: "transfer.finetune_s_per_round", Unit: "s", Better: "lower", Moves: "round_s_p50 on cloud-bound and wire-2node; a quarter weight on node-bound"},
	{Name: "train.evaluate_us_per_image", Unit: "us", Better: "lower", Moves: "images_per_s on node-bound (120 per node per round)"},

	{Name: "deploy.pack_ms", Unit: "ms", Better: "lower", Moves: "round_s_p50 on many-nodes only"},
	{Name: "deploy.encode_ms", Unit: "ms", Better: "lower", Moves: "round_s_p50 on wire-2node only"},
	{Name: "deploy.bundle_kb", Unit: "KB", Better: "lower", Moves: "round_s_p50 and live_heap_mb on many-nodes"},
	{Name: "deploy.deliver_ms", Unit: "ms", Better: "lower", Moves: "round_s_p50 on many-nodes (once per node per round), nowhere else"},

	{Name: "wire.upload_encode_us_per_image", Unit: "us", Better: "lower", Moves: "round_s_p50 on wire-2node only"},
	{Name: "wire.upload_decode_us_per_image", Unit: "us", Better: "lower", Moves: "round_s_p50 on wire-2node only"},
	{Name: "wire.upload_bytes_per_image", Unit: "B", Better: "lower", Moves: "round_s_p50 on wire-2node only"},
	{Name: "wire.round_overhead_s", Unit: "s", Better: "lower", Moves: "round_s_p50 and setup_s on wire-2node only"},

	{Name: "fleet.uplink_bytes_per_image", Unit: "B", Better: "lower", Moves: "none of the bounded metrics: the paper's data-movement column, too seed-dependent to bound"},
	{Name: "fleet.admit_p99_s", Unit: "s", Better: "lower", Moves: "round_s_p50 on node-bound and many-nodes: node compute plus queueing"},
	{Name: "fleet.batches_per_round", Unit: "count", Better: "lower", Moves: "round_s_p50 on many-nodes"},
	{Name: "fleet.msgs_per_batch", Unit: "count", Better: "higher", Moves: "round_s_p50 on many-nodes"},
	{Name: "fleet.ckpt_save_s_p50", Unit: "s", Better: "lower", Moves: "ckpt_mb on many-nodes"},
	{Name: "fleet.ckpt_restore_s", Unit: "s", Better: "lower", Moves: "ckpt_mb on many-nodes: the read beside the write"},
	{Name: "fleet.node_state_kb", Unit: "KB", Better: "lower", Moves: "ckpt_mb and live_heap_mb on many-nodes"},
	{Name: "fleet.ckpt_growth_kb_per_round", Unit: "KB", Better: "lower", Moves: "ckpt_mb and live_heap_mb on many-nodes and cloud-bound: the unbounded replay pool"},
	{Name: "fleet.reconcile_ratio", Unit: "fraction", Better: "higher", Moves: "none: outside 0.8-1.25 the replay no longer mirrors the loop (trace_valid=false)"},

	{Name: "quant.int8_predict_us_b1", Unit: "us", Better: "lower", Moves: "images_per_s on node-bound, if the int8 path is ever put on it"},
	{Name: "quant.int8_speedup_b1", Unit: "x", Better: "higher", Moves: "images_per_s on node-bound: below 1 the int8 path cannot help"},

	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower", Moves: "round_s_p50 everywhere: the telemetry budget (2 %)"},
}

// metric is one measured value as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet builds the result map for defs from values, which must hold
// every name.
func metricSet(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			panic("benchmark: metric " + d.Name + " was not measured")
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out
}
