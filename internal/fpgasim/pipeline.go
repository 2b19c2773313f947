package fpgasim

import (
	"fmt"

	"insitu/internal/device"
	"insitu/internal/models"
)

// ConvArch names the four conv-stage configurations compared in Fig. 23.
type ConvArch string

const (
	// ArchNWS is the traditional engine with no FCN batch optimization.
	ArchNWS ConvArch = "NWS"
	// ArchNWSBatch is the traditional engine with the Fig. 13 FCN batch
	// loop.
	ArchNWSBatch ConvArch = "NWS-batch"
	// ArchWS is the uniform weight-shared design (Fig. 17).
	ArchWS ConvArch = "WS"
	// ArchWSSNWS is the paper's design: WSS group for CONV, NWS for FCN,
	// pipelined (Figs. 19–20).
	ArchWSSNWS ConvArch = "WSS-NWS"
)

// Pipeline models the overall In-situ AI FPGA architecture of Fig. 19:
// a CONV stage (one of the architectures above) and an FCN stage on an
// NWS engine, operating as a two-stage pipeline (Fig. 20). The FCN stage
// batches Bsize samples, so the CONV stage runs Bsize images per pipeline
// beat (eq. 13). In steady state the conv stage is batch-tiled like the
// FCN stage: it keeps each layer's weights on chip for all Bsize images
// of a beat, so off-chip conv-weight traffic is paid once per beat.
type Pipeline struct {
	Spec        device.FPGASpec
	Arch        ConvArch
	Workload    CoRunWorkload
	SharedConvs int
	// ConvPE and FCNPE split the DSP budget (eq. 10).
	ConvPE, FCNPE int
	// LayerOverhead is the per-layer, per-beat control/DMA setup time.
	LayerOverhead float64
	fcnEngine     NWSEngine
}

// NewPipeline builds a pipeline with the default budget split: a 32×32
// FCN engine and the rest of the DSP slices for the CONV stage (3600 −
// 1024 = 2576, of which the paper's 4-WSS group uses 2548).
func NewPipeline(spec device.FPGASpec, arch ConvArch, w CoRunWorkload, sharedConvs int) (*Pipeline, error) {
	fcn := NWSEngine{Tm: 32, Tn: 32}
	p := &Pipeline{
		Spec:          spec,
		Arch:          arch,
		Workload:      w,
		SharedConvs:   sharedConvs,
		ConvPE:        spec.DSPSlices - fcn.DSP(),
		FCNPE:         fcn.DSP(),
		LayerOverhead: 150e-6,
		fcnEngine:     fcn,
	}
	if p.ConvPE+p.FCNPE > spec.DSPSlices {
		return nil, fmt.Errorf("fpgasim: DSP budget exceeded: %d + %d > %d (eq. 10)", p.ConvPE, p.FCNPE, spec.DSPSlices)
	}
	return p, nil
}

// batchOpt reports whether this architecture uses the FCN batch loop.
func (p *Pipeline) batchOpt() bool { return p.Arch != ArchNWS }

// convRun evaluates the CONV stage on the configured architecture.
func (p *Pipeline) convRun() ConvRunResult {
	switch p.Arch {
	case ArchWS:
		return RunWS(p.Spec, p.ConvPE, p.Workload, p.SharedConvs)
	case ArchWSSNWS:
		return RunWSS(p.Spec, p.ConvPE, p.Workload, p.SharedConvs)
	default: // NWS and NWS-batch share the conv stage
		return RunNWS(p.Spec, p.ConvPE, p.Workload, p.SharedConvs)
	}
}

// ConvStageTime returns the CONV stage time for one pipeline beat of
// bsize images: compute scales with the batch, weight loading is paid
// once per beat.
func (p *Pipeline) ConvStageTime(bsize int) float64 {
	r := p.convRun()
	nLayers := len(p.Workload.Inference.ConvLayers())
	return float64(bsize)*r.ComputeTime + r.DataTime + float64(nLayers)*p.LayerOverhead
}

// fcnLayers returns the FCN workload: the inference head plus the
// diagnosis (permutation) head — both run on the NWS stage.
func (p *Pipeline) fcnLayers() []models.LayerSpec {
	layers := append([]models.LayerSpec(nil), p.Workload.Inference.FCLayers()...)
	return append(layers, p.Workload.Diagnosis.FCLayers()...)
}

// FCNTime returns the FCN stage time for a batch of bsize samples,
// eq. (12): per layer, max(compute, memory).
func (p *Pipeline) FCNTime(bsize int) float64 {
	var t float64
	for _, l := range p.fcnLayers() {
		comp := float64(p.fcnEngine.FCNCycles(l, bsize)) / p.Spec.FreqHz
		mem := float64(FCNAccessBytes(l, bsize, p.batchOpt())) / p.Spec.MemBandwidth
		if mem > comp {
			t += mem
		} else {
			t += comp
		}
		t += p.LayerOverhead
	}
	return t
}

// Latency implements eq. (13): T = 2·max(T_conv(Bsize), T_fcn(Bsize)).
func (p *Pipeline) Latency(bsize int) float64 {
	conv := p.ConvStageTime(bsize)
	fcn := p.FCNTime(bsize)
	if fcn > conv {
		return 2 * fcn
	}
	return 2 * conv
}

// Throughput returns steady-state images/s at the given FCN batch: each
// pipeline beat of max(stage times) retires bsize images.
func (p *Pipeline) Throughput(bsize int) float64 {
	conv := p.ConvStageTime(bsize)
	fcn := p.FCNTime(bsize)
	beat := conv
	if fcn > beat {
		beat = fcn
	}
	return float64(bsize) / beat
}

// PlanResult is the outcome of the eq. (14) configuration search.
type PlanResult struct {
	Feasible   bool
	Bsize      int
	Latency    float64
	Throughput float64
}

// MaxThroughputUnderLatency finds the batch size maximizing throughput
// subject to eq. (14): Latency ≤ treq. It returns Feasible=false when
// even batch 1 misses the requirement (the WS "×" marks in Fig. 23).
func (p *Pipeline) MaxThroughputUnderLatency(treq float64, maxBatch int) PlanResult {
	best := PlanResult{}
	for b := 1; b <= maxBatch; b++ {
		lat := p.Latency(b)
		if lat > treq {
			continue
		}
		thr := p.Throughput(b)
		if !best.Feasible || thr > best.Throughput {
			best = PlanResult{Feasible: true, Bsize: b, Latency: lat, Throughput: thr}
		}
	}
	return best
}

// InferenceSim models a single-task (inference only) FPGA run, used by
// the Fig. 11/12/14/15 characterization: CONV layers on an NWS engine
// and FCN layers on the same fabric, with or without the batch loop.
type InferenceSim struct {
	Spec     device.FPGASpec
	Engine   NWSEngine
	BatchOpt bool
}

// NewInferenceSim allocates the whole DSP budget to one engine sized for
// the given net.
func NewInferenceSim(spec device.FPGASpec, net models.NetSpec, batchOpt bool) *InferenceSim {
	return &InferenceSim{
		Spec:     spec,
		Engine:   BestNWSEngine(spec.DSPSlices, net.ConvLayers()),
		BatchOpt: batchOpt,
	}
}

// NetResult mirrors gpusim's breakdown for the FPGA.
type NetResult struct {
	Batch    int
	ConvTime float64
	FCNTime  float64
}

// TotalTime returns the whole-batch latency.
func (r NetResult) TotalTime() float64 { return r.ConvTime + r.FCNTime }

// Throughput returns images/s.
func (r NetResult) Throughput() float64 { return float64(r.Batch) / r.TotalTime() }

// FCNShare returns the FCN fraction of runtime.
func (r NetResult) FCNShare() float64 { return r.FCNTime / r.TotalTime() }

// NetTime evaluates a batch: the CONV loop structure of Fig. 9 is
// batch-oblivious (it re-streams weights per image), so CONV time scales
// exactly linearly with the batch — the reason FPGA CONV
// energy-efficiency is flat in Figs. 14–15. FCN follows eq. (12).
func (s *InferenceSim) NetTime(net models.NetSpec, batch int) NetResult {
	res := NetResult{Batch: batch}
	for _, l := range net.ConvLayers() {
		compute := float64(s.Engine.ConvCycles(l)) * float64(batch) / s.Spec.FreqHz
		data := float64(l.WeightBytes()) * float64(batch) / s.Spec.MemBandwidth
		res.ConvTime += compute + data
	}
	for _, l := range net.FCLayers() {
		comp := float64(s.Engine.FCNCycles(l, batch)) / s.Spec.FreqHz
		mem := float64(FCNAccessBytes(l, batch, s.BatchOpt)) / s.Spec.MemBandwidth
		if mem > comp {
			res.FCNTime += mem
		} else {
			res.FCNTime += comp
		}
	}
	return res
}

// PerfPerWatt returns images/s/W — the FPGA series of Figs. 11 and 14.
func (s *InferenceSim) PerfPerWatt(net models.NetSpec, batch int) float64 {
	return s.NetTime(net, batch).Throughput() / s.Spec.PowerW
}
