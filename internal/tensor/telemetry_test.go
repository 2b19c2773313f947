package tensor

import (
	"testing"

	"insitu/internal/telemetry"
)

// withTelemetry installs a fresh registry for the duration of the test
// and restores the disabled default afterwards.
func withTelemetry(t *testing.T) *telemetry.Registry {
	t.Helper()
	reg := telemetry.NewRegistry()
	EnableTelemetry(reg)
	t.Cleanup(func() { EnableTelemetry(nil) })
	return reg
}

// The kernel counters must attribute GEMM work: a blocked matmul bumps
// calls/FLOPs/pack bytes and runs through the workspace pools.
func TestKernelCountersAttributeGemm(t *testing.T) {
	reg := withTelemetry(t)
	const s = 128
	r := NewRNG(1)
	a, b, c := New(s, s), New(s, s), New(s, s)
	a.FillNormal(r, 0, 1)
	b.FillNormal(r, 0, 1)
	MatMulInto(c, a, b)

	snap := reg.Snapshot()
	if got := snap.Counters["tensor_gemm_calls_total"]; got != 1 {
		t.Errorf("gemm_calls_total = %d, want 1", got)
	}
	if got := snap.Counters["tensor_gemm_flops_total"]; got != 2*s*s*s {
		t.Errorf("gemm_flops_total = %d, want %d", got, 2*s*s*s)
	}
	if snap.Counters["tensor_pack_bytes_total"] == 0 {
		t.Error("pack_bytes_total = 0, want > 0")
	}
	if snap.Counters["tensor_workspace_gets_total"] == 0 {
		t.Error("workspace_gets_total = 0, want > 0 (pack pools)")
	}
	if got, want := snap.Counters["tensor_workspace_puts_total"], snap.Counters["tensor_workspace_gets_total"]; got != want {
		t.Errorf("workspace puts = %d, gets = %d; kernels must balance the pools", got, want)
	}

	// A tiny problem takes the unblocked path and is counted separately.
	ta, tb, tc := New(2, 2), New(2, 2), New(2, 2)
	MatMulInto(tc, ta, tb)
	snap = reg.Snapshot()
	if got := snap.Counters["tensor_gemm_small_calls_total"]; got != 1 {
		t.Errorf("gemm_small_calls_total = %d, want 1", got)
	}
	if got := snap.Counters["tensor_gemm_calls_total"]; got != 1 {
		t.Errorf("gemm_calls_total moved to %d on the small path", got)
	}
}

// Work counters must not depend on how many workers executed the GEMM:
// FLOPs and pack bytes are counted once per logical call, never per
// worker tile, so a 0-worker (inline) run and a 7-worker run of the same
// problem report identical totals. This pins the GOMAXPROCS-invariance
// contract the bench JSON relies on.
func TestKernelCountersWorkerInvariance(t *testing.T) {
	reg := withTelemetry(t)
	getPool() // force pool init so restoring the global below is safe
	saved := pool
	defer func() { pool = saved }()

	r := NewRNG(3)
	a, b := New(137, 260), New(260, 301)
	a.FillNormal(r, 0, 1)
	b.FillNormal(r, 0, 1)
	c := New(137, 301)

	run := func(workers int) map[string]int64 {
		p := newWorkerPool(workers)
		defer p.close()
		pool = p
		pre := reg.Snapshot()
		MatMulInto(c, a, b)
		post := reg.Snapshot()
		delta := make(map[string]int64)
		for name, v := range post.Counters {
			delta[name] = v - pre.Counters[name]
		}
		return delta
	}
	inline := run(0)
	parallel := run(7)

	for _, key := range []string{
		"tensor_gemm_calls_total",
		"tensor_gemm_flops_total",
		"tensor_pack_bytes_total",
		"tensor_workspace_gets_total",
		"tensor_workspace_puts_total",
	} {
		if inline[key] != parallel[key] {
			t.Errorf("%s: inline %d != 7-worker %d", key, inline[key], parallel[key])
		}
	}
	// Attribution differs (inline vs parallel tiles) but the totals agree.
	tiles := func(d map[string]int64) int64 {
		return d["tensor_pool_tiles_parallel_total"] + d["tensor_pool_tiles_inline_total"]
	}
	if tiles(inline) != tiles(parallel) {
		t.Errorf("tile totals differ: %d vs %d", tiles(inline), tiles(parallel))
	}
	if inline["tensor_pool_tiles_parallel_total"] != 0 {
		t.Error("0-worker run attributed tiles to the pool")
	}
	if parallel["tensor_pool_tiles_parallel_total"] == 0 {
		t.Error("7-worker run attributed no tiles to the pool")
	}
}

// Workspace miss accounting: first Get on a fresh pool allocates (miss);
// a same-shape round-trip afterwards is a hit.
func TestWorkspaceStats(t *testing.T) {
	reg := withTelemetry(t)
	var w Workspace
	p := w.GetSlice(64)
	w.PutSlice(p)
	p = w.GetSlice(64)
	w.PutSlice(p)
	tt := w.Get(4, 4)
	w.Put(tt)
	tt = w.Get(4, 4)
	w.Put(tt)

	snap := reg.Snapshot()
	if got := snap.Counters["tensor_workspace_gets_total"]; got != 4 {
		t.Errorf("gets = %d, want 4", got)
	}
	if got := snap.Counters["tensor_workspace_puts_total"]; got != 4 {
		t.Errorf("puts = %d, want 4", got)
	}
	if got := snap.Counters["tensor_workspace_misses_total"]; got != 2 {
		// Under the race detector sync.Pool drops Puts at random, so a
		// re-Get may legitimately re-allocate; only the lower bound holds.
		if !raceEnabled || got < 2 {
			t.Errorf("misses = %d, want 2 (one per pool, first use only)", got)
		}
	}
}

// ParallelChunks must attribute work to the pool vs the inline fallback.
func TestParallelChunksCounters(t *testing.T) {
	reg := withTelemetry(t)
	p := newWorkerPool(3)
	defer p.close()
	chunks := parallelChunksOn(p, 1000, func(chunk, i0, i1 int) {})
	snap := reg.Snapshot()
	if got := snap.Counters["tensor_pool_chunks_parallel_total"]; got != int64(chunks) {
		t.Errorf("chunks_parallel_total = %d, want %d", got, chunks)
	}
	// A single-worker pool runs inline.
	p1 := newWorkerPool(0)
	defer p1.close()
	parallelChunksOn(p1, 1000, func(chunk, i0, i1 int) {})
	snap = reg.Snapshot()
	if got := snap.Counters["tensor_pool_chunks_inline_total"]; got != 1 {
		t.Errorf("chunks_inline_total = %d, want 1", got)
	}
}

// The acceptance bar for the whole subsystem: with telemetry ENABLED the
// steady-state blocked GEMM still performs zero heap allocations — the
// counters are pre-allocated atomics behind one pointer load.
func TestGemmZeroAllocWithTelemetry(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates on otherwise allocation-free paths")
	}
	withTelemetry(t)
	const s = 128
	r := NewRNG(2)
	a, b, c := New(s, s), New(s, s), New(s, s)
	a.FillNormal(r, 0, 1)
	b.FillNormal(r, 0, 1)
	MatMulInto(c, a, b) // warm pack pools
	if allocs := testing.AllocsPerRun(20, func() { MatMulInto(c, a, b) }); allocs != 0 {
		t.Errorf("MatMulInto with telemetry enabled allocates %.1f objects/op, want 0", allocs)
	}
}

// Im2Col is counted once per call.
func TestIm2ColCounter(t *testing.T) {
	reg := withTelemetry(t)
	g := Conv2DGeom{InChannels: 2, InHeight: 8, InWidth: 8, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 4}
	in := New(g.InChannels, g.InHeight, g.InWidth)
	dst := New(g.ColRows(), g.ColCols())
	Im2Col(in, g, dst)
	Im2Col(in, g, dst)
	if got := reg.Snapshot().Counters["tensor_im2col_calls_total"]; got != 2 {
		t.Errorf("im2col_calls_total = %d, want 2", got)
	}
}
