// Package cloud models the Cloud half of In-situ AI: the cost (time and
// energy) of unsupervised pre-training, transfer learning and incremental
// model updates on a Titan X-class training GPU. The laptop-scale
// experiments train tiny networks for real (internal/train); this package
// prices what the same update would cost at the paper's full scale, so
// Fig. 25's energy/update-time comparison across the four IoT system
// variants can be regenerated. The pricing is ops-based: it preserves the
// *ratios* between variants (what is retrained × on how much data), which
// is what the paper's figure communicates.
package cloud

import (
	"insitu/internal/device"
	"insitu/internal/models"
	"insitu/internal/transfer"
)

// CostModel prices training work on a Cloud GPU.
type CostModel struct {
	GPU device.GPUSpec
	// Efficiency is the fraction of peak the training job sustains;
	// dense CNN training on cuDNN lands near 0.55–0.7 of peak.
	Efficiency float64
	// EpochsPerUpdate is how many passes an incremental fine-tune makes
	// over the new data.
	EpochsPerUpdate int
}

// NewCostModel returns the default Titan X pricing.
func NewCostModel() CostModel {
	return CostModel{GPU: device.TitanX(), Efficiency: 0.6, EpochsPerUpdate: 2}
}

// Cost is a priced unit of Cloud work.
type Cost struct {
	Seconds float64
	Joules  float64
}

// Add accumulates another cost.
func (c *Cost) Add(o Cost) {
	c.Seconds += o.Seconds
	c.Joules += o.Joules
}

// trainCost prices `samples × epochs` training passes of opsPerSample.
func (m CostModel) trainCost(opsPerSample int64, samples, epochs int) Cost {
	ops := float64(opsPerSample) * float64(samples) * float64(epochs)
	achieved := m.GPU.MaxOPS() * m.Efficiency
	sec := ops / achieved
	return Cost{Seconds: sec, Joules: sec * m.GPU.PowerW}
}

// UpdateCost prices one incremental update of a network on `samples` new
// images, with the first lockedConvs CONV layers weight-shared (frozen).
// Variant (a)/(b)/(c) updates use lockedConvs = 0; the In-situ AI variant
// (d) uses the shared prefix (the paper fine-tunes only the last two CONV
// layers plus FCN).
func (m CostModel) UpdateCost(spec models.NetSpec, samples, lockedConvs int) Cost {
	return m.trainCost(transfer.TrainingOpsPerSample(spec, lockedConvs), samples, m.EpochsPerUpdate)
}

// PretrainCost prices unsupervised (jigsaw) pre-training on `samples` raw
// images with the first lockedConvs CONV layers weight-shared (frozen).
// The jigsaw network runs its CONV stack on all 9 patches per image plus
// the FCN head; locked layers skip the weight-gradient pass (forward +
// input-gradient only), unlocked layers pay the full 3× forward.
func (m CostModel) PretrainCost(diagSpec models.NetSpec, samples, lockedConvs int) Cost {
	var ops int64
	convSeen := 0
	for _, l := range diagSpec.Layers {
		layerOps := l.Ops()
		patches := int64(1)
		if l.Kind == models.Conv {
			patches = 9
			convSeen++
		}
		passes := int64(3)
		if l.Kind == models.Conv && convSeen <= lockedConvs {
			passes = 2
		}
		ops += passes * patches * layerOps
	}
	return m.trainCost(ops, samples, m.EpochsPerUpdate)
}

// UpdateSpeedup returns how much faster variant-d style updates (err-only
// data + weight sharing) are over variant-a style updates (all data, full
// network) for one stage — the Fig. 25 speedup series.
func (m CostModel) UpdateSpeedup(spec models.NetSpec, allSamples, errSamples, lockedConvs int) float64 {
	full := m.UpdateCost(spec, allSamples, 0)
	reduced := m.UpdateCost(spec, errSamples, lockedConvs)
	if reduced.Seconds == 0 {
		return 1
	}
	return full.Seconds / reduced.Seconds
}
