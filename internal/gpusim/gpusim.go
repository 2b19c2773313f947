// Package gpusim is the analytical mobile-GPU model of the paper's
// Single-running mode (§IV-A, §IV-B1): matrix-multiplication-based CONV
// and FCN layers whose runtime follows the grid-size utilization model of
// eqs. (2)–(3) and the roofline time model of eqs. (5)–(8), plus the
// co-running interference behaviour of Fig. 16. It replaces measurements
// on a physical NVIDIA TX1.
package gpusim

import (
	"fmt"
	"math"

	"insitu/internal/device"
	"insitu/internal/models"
)

// Sim evaluates the analytical GPU model for a given device spec.
type Sim struct {
	Spec device.GPUSpec
	// TileM×TileN is the output sub-matrix computed by one thread block
	// (Volkov & Demmel-style blocking); eq. (2) divides the output matrix
	// into these tiles.
	TileM, TileN int
	// Overhead is the fixed per-layer kernel launch + im2col overhead in
	// seconds. It keeps tiny layers from reporting implausible zero
	// latencies.
	Overhead float64
}

// New returns a simulator with the validated default blocking (16×64
// tiles, 20 µs per-layer overhead).
func New(spec device.GPUSpec) *Sim {
	return &Sim{Spec: spec, TileM: 16, TileN: 64, Overhead: 20e-6}
}

// GridSize implements eq. (2) for a layer at the given batch size: the
// output matrix Om is M × (R·C·B); thread blocks tile it m×n.
func (s *Sim) GridSize(l models.LayerSpec, batch int) int {
	cols := l.R * l.C * batch
	return ceilDiv(l.M, s.TileM) * ceilDiv(cols, s.TileN)
}

// Utilization implements eq. (3): Gridsize / (maxBlocks · ⌈Gridsize/maxBlocks⌉).
// It rises toward 1 as the grid grows — the reason batching helps GPU
// energy-efficiency (Fig. 15).
func (s *Sim) Utilization(l models.LayerSpec, batch int) float64 {
	grid := s.GridSize(l, batch)
	mb := s.Spec.MaxBlocks
	return float64(grid) / (float64(mb) * float64(ceilDiv(grid, mb)))
}

// CTM implements eq. (8): computational operations per element accessed,
// 2·M·N·K²·R·C·B / (Din + Dw + Dout) with Din = N·K²·R·C·B,
// Dw = M·N·K², Dout = M·R·C·B.
func CTM(l models.LayerSpec, batch int) float64 {
	b := int64(batch)
	ops := l.Ops() * b
	din := l.InputElems() * b
	dw := int64(l.M) * int64(l.N) * int64(l.K) * int64(l.K)
	dout := l.OutputElems() * b
	return float64(ops) / float64(din+dw+dout)
}

// LayerResult is the model's verdict for one layer at one batch size.
type LayerResult struct {
	Layer models.LayerSpec
	Batch int
	// Time is the layer latency in seconds for the whole batch.
	Time float64
	// Utilization is eq. (3).
	Utilization float64
	// AchievedOPS is eq. (6): min(compute roof × util, CTM × MBW).
	AchievedOPS float64
	// MemoryBound reports whether the bandwidth term limited the layer.
	MemoryBound bool
}

// LayerTime evaluates eqs. (5)–(8) for one layer.
func (s *Sim) LayerTime(l models.LayerSpec, batch int) LayerResult {
	if batch < 1 {
		panic(fmt.Sprintf("gpusim: batch %d", batch))
	}
	util := s.Utilization(l, batch)
	computeRoof := s.Spec.MaxOPS() * util
	// MBW is in bytes/s; CTM counts float32 elements, so divide by 4.
	bwRoof := CTM(l, batch) * s.Spec.MemBandwidth / 4
	achieved := math.Min(computeRoof, bwRoof)
	ops := float64(l.Ops()) * float64(batch)
	return LayerResult{
		Layer:       l,
		Batch:       batch,
		Time:        ops/achieved + s.Overhead,
		Utilization: util,
		AchievedOPS: achieved,
		MemoryBound: bwRoof < computeRoof,
	}
}

// NetResult aggregates a whole-network evaluation.
type NetResult struct {
	Net   models.NetSpec
	Batch int
	// ConvTime and FCNTime split the batch latency by layer family —
	// the runtime breakdown of Fig. 12.
	ConvTime float64
	FCNTime  float64
	// Layers holds the per-layer results in order.
	Layers []LayerResult
}

// TotalTime returns the whole-batch latency.
func (r NetResult) TotalTime() float64 { return r.ConvTime + r.FCNTime }

// Latency returns the per-image latency (batch latency: all images in a
// batch complete together, so the user-visible response time is the full
// batch time).
func (r NetResult) Latency() float64 { return r.TotalTime() }

// Throughput returns images/s at this batch size.
func (r NetResult) Throughput() float64 { return float64(r.Batch) / r.TotalTime() }

// FCNShare returns FCN time as a fraction of total (Fig. 12's y-axis).
func (r NetResult) FCNShare() float64 { return r.FCNTime / r.TotalTime() }

// NetTime evaluates every layer of a network at the given batch size.
func (s *Sim) NetTime(spec models.NetSpec, batch int) NetResult {
	res := NetResult{Net: spec, Batch: batch}
	for _, l := range spec.Layers {
		lr := s.LayerTime(l, batch)
		res.Layers = append(res.Layers, lr)
		if l.Kind == models.Conv {
			res.ConvTime += lr.Time
		} else {
			res.FCNTime += lr.Time
		}
	}
	return res
}

// PerfPerWatt returns images per second per watt at the given batch —
// the energy-efficiency metric of Figs. 11 and 14.
func (s *Sim) PerfPerWatt(spec models.NetSpec, batch int) float64 {
	return s.NetTime(spec, batch).Throughput() / s.Spec.PowerW
}

// MemoryUse returns the bytes of device memory a batch needs:
// max over layers of (Din + Dw + Dout) × 4 bytes — the left side of the
// resource model, eq. (9).
func MemoryUse(spec models.NetSpec, batch int) int64 {
	var peak int64
	b := int64(batch)
	for _, l := range spec.Layers {
		din := l.InputElems() * b
		dw := int64(l.M) * int64(l.N) * int64(l.K) * int64(l.K)
		dout := l.OutputElems() * b
		if t := 4 * (din + dw + dout); t > peak {
			peak = t
		}
	}
	return peak
}

// FitsMemory implements eq. (9): whether the batch fits device memory.
func (s *Sim) FitsMemory(spec models.NetSpec, batch int) bool {
	return MemoryUse(spec, batch) <= s.Spec.MemCapacity
}

// MaxBatchForMemory returns the largest power-of-two-free batch size that
// satisfies eq. (9); it is the diagnosis task's configuration bound in
// Single-running mode.
func (s *Sim) MaxBatchForMemory(spec models.NetSpec, limit int) int {
	best := 0
	for b := 1; b <= limit; b++ {
		if s.FitsMemory(spec, b) {
			best = b
		}
	}
	return best
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
