// Package fpgasim is a cycle-accounting simulator of the paper's FPGA
// convolution architectures for Co-running mode (§IV): the classic
// input/output-feature-map-unrolled engine (NWS, Fig. 10), the uniform
// duplicated weight-shared design (WS, Fig. 17), the paper's two-level
// weight-shared output-neuron-unrolled design (WSS, Fig. 18), the FCN
// batch-loop optimization (Fig. 13), and the WSS+NWS pipeline (Figs.
// 19–20, eqs. 10–14). It replaces a physical Virtex-7 implementation:
// every number it reports is a deterministic function of cycle and byte
// counts computed from the paper's own formulas.
package fpgasim

import (
	"fmt"

	"insitu/internal/models"
)

// NWSEngine is the traditional convolution engine of Fig. 10: Tm output
// feature maps × Tn input feature maps unrolled, Tm×Tn multiply-add PEs.
type NWSEngine struct {
	Tm, Tn int
}

// DSP returns the engine's PE (DSP slice) count.
func (e NWSEngine) DSP() int { return e.Tm * e.Tn }

// ConvCycles returns the cycles to compute one CONV layer on this engine
// (the loop structure of Fig. 9): ⌈M/Tm⌉·⌈N/Tn⌉·K²·R·C.
func (e NWSEngine) ConvCycles(l models.LayerSpec) int64 {
	return int64(ceilDiv(l.M, e.Tm)) * int64(ceilDiv(l.N, e.Tn)) *
		int64(l.K*l.K) * int64(l.R) * int64(l.C)
}

// Utilization implements eq. (4): N·M / (Tn·Tm·⌈N/Tn⌉·⌈M/Tm⌉).
// Note it does not depend on batch size — the Fig. 15 contrast with the
// GPU.
func (e NWSEngine) Utilization(l models.LayerSpec) float64 {
	return float64(l.N) * float64(l.M) /
		(float64(e.Tn) * float64(e.Tm) * float64(ceilDiv(l.N, e.Tn)) * float64(ceilDiv(l.M, e.Tm)))
}

// FCNCycles returns the compute cycles for a batch of an FC layer:
// ⌈N/Tn⌉·⌈M/Tm⌉·B (the compute term of eq. 12).
func (e NWSEngine) FCNCycles(l models.LayerSpec, batch int) int64 {
	return int64(ceilDiv(l.N, e.Tn)) * int64(ceilDiv(l.M, e.Tm)) * int64(batch)
}

// FCNAccessBytes returns the off-chip traffic of an FC layer for a batch:
// with the Fig. 13 batch-loop optimization the M·N weight matrix is
// fetched once per batch and reused by all samples; without it the
// weights are re-fetched per sample. Activations (N in, M out) always
// move per sample. float32 elements.
func FCNAccessBytes(l models.LayerSpec, batch int, batchOpt bool) int64 {
	weights := int64(l.M) * int64(l.N)
	perSample := int64(l.N) + int64(l.M)
	if batchOpt {
		return 4 * (weights + int64(batch)*perSample)
	}
	return 4 * int64(batch) * (weights + perSample)
}

// WSSEngine is one output-neuron-unrolled engine of Fig. 18: a Tr×Tc PE
// array where each PE owns one output neuron, inputs shift through the
// array and a single kernel weight is broadcast to every PE each cycle
// (the second level of weight sharing).
type WSSEngine struct {
	Tr, Tc int
}

// DSP returns the engine's PE count.
func (e WSSEngine) DSP() int { return e.Tr * e.Tc }

// ConvCyclesGroup implements eq. (11) for a group of groupSize WSS
// engines that produce groupSize output feature maps in parallel:
// ⌈M/groupSize⌉·N·K²·⌈R/Tr⌉·⌈C/Tc⌉.
func (e WSSEngine) ConvCyclesGroup(l models.LayerSpec, groupSize int) int64 {
	if groupSize < 1 {
		panic(fmt.Sprintf("fpgasim: group size %d", groupSize))
	}
	return int64(ceilDiv(l.M, groupSize)) * int64(l.N) * int64(l.K*l.K) *
		int64(ceilDiv(l.R, e.Tr)) * int64(ceilDiv(l.C, e.Tc))
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
