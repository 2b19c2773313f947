package wssim

import (
	"fmt"

	"insitu/internal/tensor"
)

// FCNEngine executes fully-connected layers on the Tm×Tn array with the
// loop structure of the paper's Fig. 13: output neurons unrolled by Tm,
// input neurons by Tn, and — when BatchLoop is set — an inner batch loop
// that reuses each loaded weight tile for every sample of the batch (the
// FCN batch optimization). Off-chip traffic is counted per weight-tile
// load, so the simulation reproduces the access counts of
// fpgasim.FCNAccessBytes.
type FCNEngine struct {
	Tm, Tn int
	// BatchLoop enables the Fig. 13 batch optimization.
	BatchLoop bool
}

// FCNStats extends RunStats with off-chip access accounting.
type FCNStats struct {
	RunStats
	// WeightElemsLoaded counts weight words fetched from off-chip.
	WeightElemsLoaded int64
	// ActivationElems counts input reads + output writes.
	ActivationElems int64
}

// Run computes y = x·Wᵀ + bias-free for a batch x of shape [B, N] and
// weights [M, N], returning [B, M] and the engine stats.
func (e FCNEngine) Run(x, weights *tensor.Tensor) (*tensor.Tensor, FCNStats) {
	if x.Rank() != 2 || weights.Rank() != 2 || x.Dim(1) != weights.Dim(1) {
		panic(fmt.Sprintf("wssim: FCN shapes %v × %v", x.Shape(), weights.Shape()))
	}
	batch, n := x.Dim(0), x.Dim(1)
	m := weights.Dim(0)
	out := tensor.New(batch, m)
	stats := FCNStats{RunStats: RunStats{PEs: e.Tm * e.Tn}}

	// Tile loops over output and input neurons (Fig. 13).
	for m0 := 0; m0 < m; m0 += e.Tm {
		for n0 := 0; n0 < n; n0 += e.Tn {
			// One weight tile is loaded from off-chip...
			tileElems := int64(0)
			for dm := 0; dm < e.Tm && m0+dm < m; dm++ {
				for dn := 0; dn < e.Tn && n0+dn < n; dn++ {
					tileElems++
				}
			}
			if e.BatchLoop {
				// ...once per tile: the batch loop reuses it (green loop
				// in Fig. 13).
				stats.WeightElemsLoaded += tileElems
				for b := 0; b < batch; b++ {
					e.tileCycle(x, weights, out, &stats, b, m0, n0, m, n)
				}
			} else {
				// ...once per sample: no reuse across the batch.
				for b := 0; b < batch; b++ {
					stats.WeightElemsLoaded += tileElems
					e.tileCycle(x, weights, out, &stats, b, m0, n0, m, n)
				}
			}
		}
	}
	stats.ActivationElems = int64(batch) * int64(n+m)
	return out, stats
}

// tileCycle performs one cycle: Tm×Tn MACs for one sample on one tile.
func (e FCNEngine) tileCycle(x, weights, out *tensor.Tensor, stats *FCNStats, b, m0, n0, m, n int) {
	stats.Cycles++
	for dm := 0; dm < e.Tm; dm++ {
		mm := m0 + dm
		if mm >= m {
			continue
		}
		for dn := 0; dn < e.Tn; dn++ {
			nn := n0 + dn
			if nn >= n {
				continue
			}
			out.Data[b*m+mm] += x.At(b, nn) * weights.At(mm, nn)
			stats.MACs++
		}
	}
}

// ReferenceFCN computes y = x·Wᵀ with the matmul kernel for
// cross-checking.
func ReferenceFCN(x, weights *tensor.Tensor) *tensor.Tensor {
	return tensor.MatMulTransB(x, weights)
}
