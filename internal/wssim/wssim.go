// Package wssim is a cycle-level functional simulator of the paper's two
// convolution-engine dataflows: the traditional Tm×Tn engine of Fig. 10
// (NWS) and the output-neuron-unrolled weight-broadcast engine of
// Fig. 18 (WSS). Unlike internal/fpgasim — which *prices* architectures
// with the paper's closed-form cycle counts — wssim actually executes the
// dataflow: PE arrays accumulate real numbers cycle by cycle, so the
// simulation both validates the analytic cycle formulas and proves the
// dataflow computes correct convolutions (the Fig. 18 shift/broadcast
// schedule really works).
package wssim

import (
	"fmt"

	"insitu/internal/tensor"
)

// RunStats aggregates what the engine did during one layer.
type RunStats struct {
	// Cycles is the number of simulated clock cycles.
	Cycles int64
	// MACs is the number of useful multiply-accumulates performed.
	MACs int64
	// WeightBroadcasts counts weight words delivered to the PE array —
	// one per cycle per engine for WSS (the second level of weight
	// sharing), Tm×Tn per cycle for NWS.
	WeightBroadcasts int64
	// PEs is the array size used.
	PEs int
}

// Utilization returns useful MACs over PE-cycles.
func (s RunStats) Utilization() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.MACs) / (float64(s.Cycles) * float64(s.PEs))
}

// WSSEngine is the Fig. 18 array: Tr×Tc PEs, one output neuron per PE,
// one weight broadcast to every PE each cycle.
type WSSEngine struct {
	Tr, Tc int
}

// RunConvGroup executes a CONV layer on a group of groupSize WSS engines
// working in lockstep, each producing a strided subset of the output
// feature maps (engine e computes maps e, e+G, e+2G, ...). It returns the
// full output tensor [M, R, C] and the group's stats (cycles are the
// slowest engine's; MACs and broadcasts are summed over the group).
//
// input is [N, H, W]; weights are [M, N, K, K]; geometry g must describe
// the layer.
func (e WSSEngine) RunConvGroup(input, weights *tensor.Tensor, g tensor.Conv2DGeom, groupSize int) (*tensor.Tensor, RunStats) {
	if groupSize < 1 {
		panic("wssim: group size must be positive")
	}
	validateShapes(input, weights, g)
	outH, outW := g.OutHeight(), g.OutWidth()
	out := tensor.New(g.OutChannels, outH, outW)

	stats := RunStats{PEs: e.Tr * e.Tc}
	var maxCycles int64
	for engine := 0; engine < groupSize; engine++ {
		var cycles int64
		// Each engine walks its assigned output maps.
		for m := engine; m < g.OutChannels; m += groupSize {
			// Tile the output plane into Tr×Tc blocks of PEs.
			for tr0 := 0; tr0 < outH; tr0 += e.Tr {
				for tc0 := 0; tc0 < outW; tc0 += e.Tc {
					// For every input map and kernel tap: one cycle — a
					// single weight is broadcast to all PEs, inputs
					// shift through the array (Fig. 18's red/green
					// arrows), every resident PE accumulates.
					for n := 0; n < g.InChannels; n++ {
						for ky := 0; ky < g.KernelSize; ky++ {
							for kx := 0; kx < g.KernelSize; kx++ {
								w := weights.At(m, n, ky, kx)
								cycles++
								stats.WeightBroadcasts++
								// All PEs work this cycle (those past
								// the layer edge idle).
								for pr := 0; pr < e.Tr; pr++ {
									oy := tr0 + pr
									if oy >= outH {
										continue
									}
									for pc := 0; pc < e.Tc; pc++ {
										ox := tc0 + pc
										if ox >= outW {
											continue
										}
										iy := oy*g.Stride + ky - g.Padding
										ix := ox*g.Stride + kx - g.Padding
										if iy < 0 || iy >= g.InHeight || ix < 0 || ix >= g.InWidth {
											continue
										}
										acc := out.At(m, oy, ox) + w*input.At(n, iy, ix)
										out.Set(acc, m, oy, ox)
										stats.MACs++
									}
								}
							}
						}
					}
				}
			}
		}
		if cycles > maxCycles {
			maxCycles = cycles
		}
	}
	stats.Cycles = maxCycles
	stats.PEs = e.Tr * e.Tc * groupSize
	return out, stats
}

// NWSEngine is the Fig. 10 array: Tm output maps × Tn input maps
// unrolled; each cycle performs up to Tm×Tn MACs at one kernel tap and
// output site, with Tm×Tn distinct weights live.
type NWSEngine struct {
	Tm, Tn int
}

// RunConv executes a CONV layer on the engine, returning output [M,R,C]
// and stats. The loop structure matches the paper's Fig. 9: tiles of Tm
// output maps × Tn input maps, K²·R·C cycles per tile pair.
func (e NWSEngine) RunConv(input, weights *tensor.Tensor, g tensor.Conv2DGeom) (*tensor.Tensor, RunStats) {
	validateShapes(input, weights, g)
	outH, outW := g.OutHeight(), g.OutWidth()
	out := tensor.New(g.OutChannels, outH, outW)
	stats := RunStats{PEs: e.Tm * e.Tn}
	for m0 := 0; m0 < g.OutChannels; m0 += e.Tm {
		for n0 := 0; n0 < g.InChannels; n0 += e.Tn {
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					for ky := 0; ky < g.KernelSize; ky++ {
						for kx := 0; kx < g.KernelSize; kx++ {
							stats.Cycles++
							stats.WeightBroadcasts += int64(e.Tm * e.Tn)
							iy := oy*g.Stride + ky - g.Padding
							ix := ox*g.Stride + kx - g.Padding
							inBounds := iy >= 0 && iy < g.InHeight && ix >= 0 && ix < g.InWidth
							for dm := 0; dm < e.Tm; dm++ {
								m := m0 + dm
								if m >= g.OutChannels {
									continue
								}
								for dn := 0; dn < e.Tn; dn++ {
									n := n0 + dn
									if n >= g.InChannels || !inBounds {
										continue
									}
									acc := out.At(m, oy, ox) + weights.At(m, n, ky, kx)*input.At(n, iy, ix)
									out.Set(acc, m, oy, ox)
									stats.MACs++
								}
							}
						}
					}
				}
			}
		}
	}
	return out, stats
}

func validateShapes(input, weights *tensor.Tensor, g tensor.Conv2DGeom) {
	if input.Rank() != 3 || input.Dim(0) != g.InChannels || input.Dim(1) != g.InHeight || input.Dim(2) != g.InWidth {
		panic(fmt.Sprintf("wssim: input shape %v does not match geom %+v", input.Shape(), g))
	}
	if weights.Rank() != 4 || weights.Dim(0) != g.OutChannels || weights.Dim(1) != g.InChannels ||
		weights.Dim(2) != g.KernelSize || weights.Dim(3) != g.KernelSize {
		panic(fmt.Sprintf("wssim: weight shape %v does not match geom %+v", weights.Shape(), g))
	}
}

// ReferenceConv computes the layer with im2col + matmul for
// cross-checking the dataflow simulators.
func ReferenceConv(input, weights *tensor.Tensor, g tensor.Conv2DGeom) *tensor.Tensor {
	cols := tensor.New(g.ColRows(), g.ColCols())
	tensor.Im2Col(input, g, cols)
	fm := weights.Reshape(g.OutChannels, g.ColRows())
	out := tensor.New(g.OutChannels, g.ColCols())
	tensor.MatMulInto(out, fm, cols)
	return out.Reshape(g.OutChannels, g.OutHeight(), g.OutWidth())
}
