package fpgasim

import (
	"insitu/internal/device"
	"insitu/internal/models"
)

// CoRunWorkload is the Co-running CONV workload of one captured image:
// the inference network's CONV layers on the full image plus the
// diagnosis network's CONV layers on each of its 9 patches.
type CoRunWorkload struct {
	Inference models.NetSpec // full-image layer dims
	Diagnosis models.NetSpec // per-patch layer dims (half linear size)
	Patches   int            // 9 for the 3×3 jigsaw
}

// NewCoRunWorkload derives the standard workload from an inference spec.
func NewCoRunWorkload(inference models.NetSpec) CoRunWorkload {
	return CoRunWorkload{
		Inference: inference,
		Diagnosis: models.DiagnosisSpec(inference, 100),
		Patches:   9,
	}
}

// ConvWeightBytes returns the CONV-only weight footprint of a spec.
func ConvWeightBytes(spec models.NetSpec) int64 {
	var s int64
	for _, l := range spec.ConvLayers() {
		s += l.WeightBytes()
	}
	return s
}

// SharedConvWeightBytes returns the weight bytes of the first n CONV
// layers — the portion inference and diagnosis share when CONV-n locking
// is in effect.
func SharedConvWeightBytes(spec models.NetSpec, n int) int64 {
	var s int64
	for i, l := range spec.ConvLayers() {
		if i >= n {
			break
		}
		s += l.WeightBytes()
	}
	return s
}

// ConvRunResult is the outcome of running the Co-running CONV workload on
// one architecture — the quantities compared in Fig. 22.
type ConvRunResult struct {
	Arch        string
	ComputeTime float64 // seconds spent computing
	DataTime    float64 // seconds loading weights from off-chip
	// DiagIdleFrac is the fraction of diagnosis-engine cycles idle while
	// waiting for the inference engine (the WS pathology, ~75%).
	DiagIdleFrac float64
}

// Total returns compute + data-access time (the paper loads each layer's
// weights before computing it).
func (r ConvRunResult) Total() float64 { return r.ComputeTime + r.DataTime }

// RunNWS processes the workload on a single traditional engine of
// peBudget PEs (best Tm×Tn factorization for the workload), with no
// task-level weight sharing: per layer it loads the inference weights,
// computes the inference layer, loads the (separate) diagnosis weights
// and computes the 9 patches sequentially. Shared CONV layers bring it no
// benefit — that is the definition of No-Weight-Sharing — so sharedConvs
// is ignored and its data traffic is constant at two full weight sets.
func RunNWS(spec device.FPGASpec, peBudget int, w CoRunWorkload, sharedConvs int) ConvRunResult {
	_ = sharedConvs
	engine := BestNWSEngine(peBudget, append(w.Inference.ConvLayers(), w.Diagnosis.ConvLayers()...))
	var cycles int64
	for _, l := range w.Inference.ConvLayers() {
		cycles += engine.ConvCycles(l)
	}
	for _, l := range w.Diagnosis.ConvLayers() {
		cycles += int64(w.Patches) * engine.ConvCycles(l)
	}
	bytes := ConvWeightBytes(w.Inference) + ConvWeightBytes(w.Diagnosis)
	return ConvRunResult{
		Arch:        "NWS",
		ComputeTime: float64(cycles) / spec.FreqHz,
		DataTime:    float64(bytes) / spec.MemBandwidth,
	}
}

// RunWS processes the workload on the uniform weight-shared design of
// Fig. 17: 1 + Patches engines with identical Tm×Tn unrolling splitting
// the PE budget evenly. Weight sharing works at the task level (first
// sharedConvs layers fetched once for both tasks) and at the patch level
// (one diagnosis copy broadcast to all patch engines), but the uniform
// split leaves the diagnosis engines idle most cycles.
func RunWS(spec device.FPGASpec, peBudget int, w CoRunWorkload, sharedConvs int) ConvRunResult {
	engines := 1 + w.Patches
	perEngine := peBudget / engines
	engine := BestNWSEngine(perEngine, append(w.Inference.ConvLayers(), w.Diagnosis.ConvLayers()...))

	var total int64
	var diagBusy, diagCap int64
	infLayers := w.Inference.ConvLayers()
	diagLayers := w.Diagnosis.ConvLayers()
	for i := range infLayers {
		infC := engine.ConvCycles(infLayers[i])
		diagC := engine.ConvCycles(diagLayers[i])
		layerTime := infC
		if diagC > layerTime {
			layerTime = diagC
		}
		total += layerTime
		diagBusy += diagC
		diagCap += layerTime
	}
	bytes := coSharedWeightBytes(w, sharedConvs)
	idle := 1 - float64(diagBusy)/float64(diagCap)
	return ConvRunResult{
		Arch:         "WS",
		ComputeTime:  float64(total) / spec.FreqHz,
		DataTime:     float64(bytes) / spec.MemBandwidth,
		DiagIdleFrac: idle,
	}
}

// WSSDesign is the paper's Fig. 18 configuration: one Tr×Tc inference
// engine plus Patches diagnosis engines of DTr×DTc, replicated GroupSize
// times (the WSS Group of Fig. 19).
type WSSDesign struct {
	Inference WSSEngine
	Diagnosis WSSEngine
	Patches   int
	GroupSize int
}

// DefaultWSSDesign returns the paper's 14×14 / 9×(7×7) split with the
// largest group that fits the PE budget.
func DefaultWSSDesign(peBudget, patches int) WSSDesign {
	d := WSSDesign{
		Inference: WSSEngine{Tr: 14, Tc: 14},
		Diagnosis: WSSEngine{Tr: 7, Tc: 7},
		Patches:   patches,
	}
	per := d.PEPerWSS()
	d.GroupSize = peBudget / per
	if d.GroupSize < 1 {
		d.GroupSize = 1
	}
	return d
}

// PEPerWSS returns the PE count of one WSS unit (inference engine + all
// patch engines).
func (d WSSDesign) PEPerWSS() int {
	return d.Inference.DSP() + d.Patches*d.Diagnosis.DSP()
}

// RunWSS processes the workload on the two-level weight-shared design.
// Inference and diagnosis proceed in lockstep per layer; the 4:1 resource
// split matches their 4:1 computational loads so neither side idles.
func RunWSS(spec device.FPGASpec, peBudget int, w CoRunWorkload, sharedConvs int) ConvRunResult {
	d := DefaultWSSDesign(peBudget, w.Patches)
	var total int64
	var diagBusy, diagCap int64
	infLayers := w.Inference.ConvLayers()
	diagLayers := w.Diagnosis.ConvLayers()
	for i := range infLayers {
		infC := d.Inference.ConvCyclesGroup(infLayers[i], d.GroupSize)
		diagC := d.Diagnosis.ConvCyclesGroup(diagLayers[i], d.GroupSize)
		layerTime := infC
		if diagC > layerTime {
			layerTime = diagC
		}
		total += layerTime
		diagBusy += diagC
		diagCap += layerTime
	}
	bytes := coSharedWeightBytes(w, sharedConvs)
	return ConvRunResult{
		Arch:         "WSS",
		ComputeTime:  float64(total) / spec.FreqHz,
		DataTime:     float64(bytes) / spec.MemBandwidth,
		DiagIdleFrac: 1 - float64(diagBusy)/float64(diagCap),
	}
}

// coSharedWeightBytes computes off-chip weight traffic when both sharing
// levels are available: the diagnosis weights are fetched once (broadcast
// to all patch engines), and the first sharedConvs layers are fetched
// once for both tasks.
func coSharedWeightBytes(w CoRunWorkload, sharedConvs int) int64 {
	inf := ConvWeightBytes(w.Inference)
	diag := ConvWeightBytes(w.Diagnosis)
	shared := SharedConvWeightBytes(w.Inference, sharedConvs)
	return inf + diag - shared
}

// BestNWSEngine searches Tm×Tn factorizations within the PE budget that
// minimize total cycles over the given layers — the "find the optimal Tm
// and Tn for a given resource budget" step of §IV-A1.
func BestNWSEngine(peBudget int, layers []models.LayerSpec) NWSEngine {
	best := NWSEngine{Tm: 1, Tn: 1}
	var bestCycles int64 = -1
	maxTm := peBudget
	if maxTm > 1024 {
		maxTm = 1024
	}
	for tm := 1; tm <= maxTm; tm++ {
		tn := peBudget / tm
		if tn < 1 {
			break
		}
		if tn > 1024 {
			tn = 1024
		}
		e := NWSEngine{Tm: tm, Tn: tn}
		var cycles int64
		for _, l := range layers {
			cycles += e.ConvCycles(l)
		}
		if bestCycles < 0 || cycles < bestCycles {
			bestCycles = cycles
			best = e
		}
	}
	return best
}
