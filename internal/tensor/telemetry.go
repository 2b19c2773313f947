package tensor

import (
	"sync/atomic"

	"insitu/internal/telemetry"
)

// Kernel-layer instrumentation. The stats struct is swapped in atomically
// by EnableTelemetry; every hot-path site does one atomic pointer load
// and, when disabled (the default), a single predictable branch — no
// allocation either way, which is what keeps the steady-state kernels at
// 0 B/op with telemetry on or off (see TestGemmZeroAllocWithTelemetry).
type kernelStats struct {
	gemmCalls *telemetry.Counter // gemm_calls_total: blocked-path GEMMs
	gemmSmall *telemetry.Counter // gemm_small_calls_total: unblocked fast path
	gemmFlops *telemetry.Counter // gemm_flops_total: 2·m·n·k multiply-adds
	gemmInt8  *telemetry.Counter // gemm_int8_calls_total: quantized GEMMs
	packBytes *telemetry.Counter // pack_bytes_total: bytes packed into A/B panels
	wsGets    *telemetry.Counter // workspace_gets_total
	wsPuts    *telemetry.Counter // workspace_puts_total
	wsMisses  *telemetry.Counter // workspace_misses_total: Get had to (re)allocate
	tilesPar  *telemetry.Counter // pool_tiles_parallel_total: tiles run via workers
	tilesInl  *telemetry.Counter // pool_tiles_inline_total: tiles run on the caller
	chunksPar *telemetry.Counter // pool_chunks_parallel_total
	chunksInl *telemetry.Counter // pool_chunks_inline_total: busy/small fallback
	im2colOps *telemetry.Counter // im2col_calls_total: padded conv input images (PadImage)
}

var kstats atomic.Pointer[kernelStats]

// gemmFlopsEver counts multiply-add flops (2·m·n·k per GEMM) for the
// process lifetime, independent of whether registry telemetry is enabled.
// It exists so callers can meter deterministic work deltas — e.g. the
// Fig. 6 experiment proves layer locking saves compute with an exact flop
// count rather than a noise-prone wall-clock measurement. One atomic add
// per logical GEMM, always in the submitting goroutine, so it costs
// nothing measurable and never contends across pool workers.
var gemmFlopsEver atomic.Int64

// GemmFlopsTotal returns the cumulative GEMM multiply-add flops executed
// by this process. Subtract two readings to meter a region of work.
func GemmFlopsTotal() int64 { return gemmFlopsEver.Load() }

// EnableTelemetry registers the kernel, workspace and worker-pool
// counters with reg and turns on their updates; pass nil to disable.
// Counters are cumulative for the process, named under the tensor_
// prefix (e.g. tensor_gemm_flops_total).
func EnableTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		kstats.Store(nil)
		return
	}
	kstats.Store(&kernelStats{
		gemmCalls: reg.Counter("tensor_gemm_calls_total"),
		gemmSmall: reg.Counter("tensor_gemm_small_calls_total"),
		gemmFlops: reg.Counter("tensor_gemm_flops_total"),
		gemmInt8:  reg.Counter("tensor_gemm_int8_calls_total"),
		packBytes: reg.Counter("tensor_pack_bytes_total"),
		wsGets:    reg.Counter("tensor_workspace_gets_total"),
		wsPuts:    reg.Counter("tensor_workspace_puts_total"),
		wsMisses:  reg.Counter("tensor_workspace_misses_total"),
		tilesPar:  reg.Counter("tensor_pool_tiles_parallel_total"),
		tilesInl:  reg.Counter("tensor_pool_tiles_inline_total"),
		chunksPar: reg.Counter("tensor_pool_chunks_parallel_total"),
		chunksInl: reg.Counter("tensor_pool_chunks_inline_total"),
		im2colOps: reg.Counter("tensor_im2col_calls_total"),
	})
}
