package experiments

import (
	"fmt"

	"insitu/internal/dataset"
	"insitu/internal/device"
	"insitu/internal/diagnosis"
	"insitu/internal/fpgasim"
	"insitu/internal/jigsaw"
	"insitu/internal/metrics"
	"insitu/internal/models"
	"insitu/internal/tensor"
)

// Ablations beyond the paper's own comparisons, for the design choices
// DESIGN.md calls out.

// AblationSplitResult studies the WSS inference:diagnosis resource split.
type AblationSplitResult struct {
	Splits   []string
	Compute  []float64
	DiagIdle []float64
}

// AblationSplit compares the paper's 4:1 (14×14 vs 9×7×7) WSS split
// against uniform and inverted splits at equal PE budget.
func AblationSplit() AblationSplitResult {
	spec := device.VX690T()
	w := fpgasim.NewCoRunWorkload(models.AlexNet())
	const pe = 2628
	configs := []struct {
		name       string
		inf, diag  fpgasim.WSSEngine
		groupScale int
	}{
		{"paper 4:1 (14x14 / 9x7x7)", fpgasim.WSSEngine{Tr: 14, Tc: 14}, fpgasim.WSSEngine{Tr: 7, Tc: 7}, 0},
		{"uniform (10x10 / 9x10x10)", fpgasim.WSSEngine{Tr: 10, Tc: 10}, fpgasim.WSSEngine{Tr: 10, Tc: 10}, 0},
		{"inverted (7x7 / 9x14x14)", fpgasim.WSSEngine{Tr: 7, Tc: 7}, fpgasim.WSSEngine{Tr: 14, Tc: 14}, 0},
	}
	var r AblationSplitResult
	for _, c := range configs {
		d := fpgasim.WSSDesign{Inference: c.inf, Diagnosis: c.diag, Patches: w.Patches}
		d.GroupSize = pe / d.PEPerWSS()
		if d.GroupSize < 1 {
			d.GroupSize = 1
		}
		var total, diagBusy, diagCap int64
		infLayers := w.Inference.ConvLayers()
		diagLayers := w.Diagnosis.ConvLayers()
		for i := range infLayers {
			infC := d.Inference.ConvCyclesGroup(infLayers[i], d.GroupSize)
			diagC := d.Diagnosis.ConvCyclesGroup(diagLayers[i], d.GroupSize)
			layer := infC
			if diagC > layer {
				layer = diagC
			}
			total += layer
			diagBusy += diagC
			diagCap += layer
		}
		r.Splits = append(r.Splits, c.name)
		r.Compute = append(r.Compute, float64(total)/spec.FreqHz)
		r.DiagIdle = append(r.DiagIdle, 1-float64(diagBusy)/float64(diagCap))
	}
	return r
}

// Table renders the result.
func (r AblationSplitResult) Table() *metrics.Table {
	t := metrics.NewTable("Ablation — WSS resource split (AlexNet co-run CONV)",
		"split", "compute (ms)", "diag idle")
	for i := range r.Splits {
		t.AddRow(r.Splits[i],
			fmt.Sprintf("%.2f", r.Compute[i]*1e3),
			fmt.Sprintf("%.0f%%", r.DiagIdle[i]*100))
	}
	return t
}

// AblationThresholdResult sweeps the diagnosis threshold.
type AblationThresholdResult struct {
	Targets    []float64
	UploadFrac []float64
	Recall     []float64
	Precision  []float64
}

// AblationThreshold sweeps the diagnosis upload budget and measures the
// recall/precision of error detection — the tradeoff behind the paper's
// "only a small proportion needs to be uploaded".
func AblationThreshold(s Scale) AblationThresholdResult {
	g := dataset.NewGenerator(s.Classes, s.Seed+50)
	set := jigsaw.NewPermSet(s.Perms, s.Seed+51)
	net := jigsaw.NewNet(s.Perms, s.Seed+52)
	tr := jigsaw.NewTrainer(net, set, 0.01, s.Seed+53)
	pool := g.MixedSet(s.TrainImages, 0.5, 0.7)
	images := make([]*tensor.Tensor, len(pool))
	for i := range pool {
		images[i] = pool[i].Image
	}
	tr.Train(images, s.Steps)
	inference := models.TinyAlex(s.Classes, s.Seed+54)
	trainPool := g.IdealSet(s.TrainImages)
	trainNet(inference, trainPool, s.Steps)

	d := diagnosis.NewJigsawDiagnoser(net, set, 3, s.Seed+55)
	calib := g.MixedSet(s.TestImages, 0.5, 0.7)
	eval := g.MixedSet(s.TestImages, 0.5, 0.7)

	var r AblationThresholdResult
	for _, target := range []float64{0.1, 0.25, 0.5, 0.75} {
		diagnosis.Calibrate(d, calib, target)
		q := diagnosis.Measure(d, inference, eval)
		r.Targets = append(r.Targets, target)
		r.UploadFrac = append(r.UploadFrac, q.UploadFraction)
		r.Recall = append(r.Recall, q.ErrorRecall)
		r.Precision = append(r.Precision, q.Precision)
	}
	return r
}

// Table renders the result.
func (r AblationThresholdResult) Table() *metrics.Table {
	t := metrics.NewTable("Ablation — diagnosis threshold sweep",
		"target upload", "actual upload", "error recall", "precision")
	for i := range r.Targets {
		t.AddRow(fmt.Sprintf("%.2f", r.Targets[i]),
			fmt.Sprintf("%.2f", r.UploadFrac[i]),
			fmt.Sprintf("%.2f", r.Recall[i]),
			fmt.Sprintf("%.2f", r.Precision[i]))
	}
	return t
}

// AblationPermsResult sweeps the permutation-set size.
type AblationPermsResult struct {
	Perms    []int
	TaskAcc  []float64 // jigsaw task accuracy (chance = 1/perms)
	Transfer []float64 // downstream accuracy after transfer
}

// AblationPerms studies how the permutation-class count affects the
// unsupervised task and the transferred features.
func AblationPerms(s Scale) AblationPermsResult {
	var r AblationPermsResult
	for _, perms := range []int{4, 8, 16} {
		sc := s
		sc.Perms = perms
		tr, acc := pretrainJigsaw(sc, s.Steps)
		g := dataset.NewGenerator(s.Classes, s.Seed+60)
		net := models.TinyAlex(s.Classes, s.Seed+61)
		if _, err := net.CopyWeightsFrom(tr.Net, "conv1", "conv2", "conv3"); err != nil {
			panic(err)
		}
		labeled := g.MixedSet(s.TrainImages/3, 0.5, 0.6)
		trainNet(net, labeled, s.Steps)
		test := g.MixedSet(s.TestImages, 0.5, 0.6)
		r.Perms = append(r.Perms, perms)
		r.TaskAcc = append(r.TaskAcc, acc)
		r.Transfer = append(r.Transfer, evalNet(net, test))
	}
	return r
}

// Table renders the result.
func (r AblationPermsResult) Table() *metrics.Table {
	t := metrics.NewTable("Ablation — permutation-set size",
		"perms", "jigsaw acc", "transfer acc")
	for i := range r.Perms {
		t.AddRow(fmt.Sprintf("%d", r.Perms[i]),
			fmt.Sprintf("%.3f", r.TaskAcc[i]),
			fmt.Sprintf("%.3f", r.Transfer[i]))
	}
	return t
}

// AblationPipelineResult studies eq. (13)'s stage coupling: throughput
// lost when the FCN batch is forced away from the planner's pick.
type AblationPipelineResult struct {
	Bsizes     []int
	Throughput []float64
	Latency    []float64
	PlannedB   int
}

// AblationPipeline sweeps the WSS-NWS pipeline batch around the planner
// choice at a 100 ms requirement.
func AblationPipeline() AblationPipelineResult {
	spec := device.VX690T()
	w := fpgasim.NewCoRunWorkload(models.AlexNet())
	p, err := fpgasim.NewPipeline(spec, fpgasim.ArchWSSNWS, w, 3)
	if err != nil {
		panic(err)
	}
	plan := p.MaxThroughputUnderLatency(0.1, 256)
	var r AblationPipelineResult
	r.PlannedB = plan.Bsize
	for _, b := range []int{1, 2, 4, 8, 16, 32, 64} {
		r.Bsizes = append(r.Bsizes, b)
		r.Throughput = append(r.Throughput, p.Throughput(b))
		r.Latency = append(r.Latency, p.Latency(b))
	}
	return r
}

// Table renders the result.
func (r AblationPipelineResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Ablation — pipeline batch coupling (planner pick B=%d @100ms)", r.PlannedB),
		"Bsize", "throughput (img/s)", "latency (ms)")
	for i := range r.Bsizes {
		t.AddRow(fmt.Sprintf("%d", r.Bsizes[i]),
			fmt.Sprintf("%.1f", r.Throughput[i]),
			fmt.Sprintf("%.1f", r.Latency[i]*1e3))
	}
	return t
}
