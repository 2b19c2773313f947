package experiments

import (
	"fmt"
	"math"
	"time"

	"insitu/internal/dataset"
	"insitu/internal/jigsaw"
	"insitu/internal/metrics"
	"insitu/internal/models"
	"insitu/internal/quant"
	"insitu/internal/tensor"
	"insitu/internal/train"
	"insitu/internal/transfer"
)

// Scale sizes the learning experiments. Small keeps unit tests fast;
// Paper is the benchmark configuration (scaled from the paper's 100k+
// image runs to what a single CPU core trains in minutes).
type Scale struct {
	Classes     int
	Perms       int
	TrainImages int
	TestImages  int
	Steps       int
	Seed        uint64
}

// Small is the test-suite scale.
var Small = Scale{Classes: 4, Perms: 6, TrainImages: 128, TestImages: 120, Steps: 60, Seed: 22}

// Paper is the benchmark scale.
var Paper = Scale{Classes: 6, Perms: 8, TrainImages: 256, TestImages: 300, Steps: 150, Seed: 21}

// TableIResult carries per-model ideal/in-situ accuracy.
type TableIResult struct {
	Models    []string
	IdealAcc  map[string]float64
	InSituAcc map[string]float64
}

// TableI reproduces "Accuracy of CNN models on Serengeti": networks
// trained on curated (ideal) data lose accuracy on real in-situ data.
func TableI(s Scale) TableIResult {
	r := TableIResult{IdealAcc: map[string]float64{}, InSituAcc: map[string]float64{}}
	type mc struct {
		name  string
		lr    float32
		steps int // multiplier ×s.Steps: deeper nets converge slower
	}
	for _, m := range []mc{{"AlexNet", 0.01, 1}, {"GoogLeNet", 0.005, 2}, {"VGGNet", 0.01, 2}} {
		g := dataset.NewGenerator(s.Classes, s.Seed)
		net := models.TinyByName(m.name, s.Classes, s.Seed+2)
		cfg := train.DefaultConfig(s.Steps * m.steps)
		cfg.LR = m.lr
		train.Run(net, g.IdealSet(s.TrainImages), cfg, 0)
		r.Models = append(r.Models, m.name)
		r.IdealAcc[m.name] = train.Evaluate(net, g.IdealSet(s.TestImages))
		r.InSituAcc[m.name] = train.Evaluate(net, g.InSituSet(s.TestImages, 0.8))
	}
	return r
}

// Table renders the result.
func (r TableIResult) Table() *metrics.Table {
	t := metrics.NewTable("Table I — accuracy on ideal vs in-situ data",
		"model", "ideal", "in-situ")
	for _, m := range r.Models {
		t.AddRow(m, fmt.Sprintf("%.0f%%", r.IdealAcc[m]*100), fmt.Sprintf("%.0f%%", r.InSituAcc[m]*100))
	}
	return t
}

// pretrainJigsaw pre-trains a jigsaw net on a mixed unlabeled pool for
// the given number of steps and returns it with its permutation set and
// task accuracy.
func pretrainJigsaw(s Scale, steps int) (*jigsaw.Trainer, float64) {
	g := dataset.NewGenerator(s.Classes, s.Seed+10)
	set := jigsaw.NewPermSet(s.Perms, s.Seed+11)
	net := jigsaw.NewNet(s.Perms, s.Seed+12)
	tr := jigsaw.NewTrainer(net, set, 0.01, s.Seed+13)
	pool := g.MixedSet(s.TrainImages, 0.5, 0.6)
	images := make([]*tensor.Tensor, len(pool))
	for i := range pool {
		images[i] = pool[i].Image
	}
	tr.Train(images, steps)
	var eval []*tensor.Tensor
	for _, smp := range g.MixedSet(s.TestImages/2+2, 0.5, 0.6) {
		eval = append(eval, smp.Image)
	}
	return tr, tr.Evaluate(eval)
}

// Fig5Result compares training-from-scratch against transfer from weak
// and strong unsupervised pre-training.
type Fig5Result struct {
	Checkpoints []int // fine-tune steps at each recorded point
	Scratch     []float64
	WeakPre     []float64 // transfer from a weakly pre-trained net
	StrongPre   []float64 // transfer from a strongly pre-trained net
	WeakAcc     float64   // jigsaw-task accuracy of the weak source
	StrongAcc   float64   // jigsaw-task accuracy of the strong source
}

// Fig5 reproduces "Accuracy Comparison using Various Training Methods":
// limited labeled data, with and without unsupervised pre-training.
func Fig5(s Scale) Fig5Result {
	weak, weakAcc := pretrainJigsaw(s, s.Steps/6)
	strong, strongAcc := pretrainJigsaw(s, s.Steps*2)

	g := dataset.NewGenerator(s.Classes, s.Seed+20)
	labeled := g.MixedSet(s.TrainImages/3, 0.5, 0.6) // limited labels
	test := g.MixedSet(s.TestImages, 0.5, 0.6)

	r := Fig5Result{WeakAcc: weakAcc, StrongAcc: strongAcc}
	const nCheck = 4
	for c := 1; c <= nCheck; c++ {
		r.Checkpoints = append(r.Checkpoints, c*s.Steps/nCheck)
	}

	runCurve := func(source *jigsaw.Trainer) []float64 {
		net := models.TinyAlex(s.Classes, s.Seed+21)
		if source != nil {
			if _, err := transfer.FromUnsupervised(net, source.Net, 3); err != nil {
				panic(err)
			}
		}
		var curve []float64
		done := 0
		for _, cp := range r.Checkpoints {
			cfg := train.DefaultConfig(cp - done)
			cfg.BatchSize = 16
			train.Run(net, labeled, cfg, 0)
			done = cp
			curve = append(curve, train.Evaluate(net, test))
		}
		return curve
	}
	r.Scratch = runCurve(nil)
	r.WeakPre = runCurve(weak)
	r.StrongPre = runCurve(strong)
	return r
}

// Table renders the result.
func (r Fig5Result) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Fig. 5 — transfer vs scratch (weak pre-train %.0f%%, strong %.0f%%)",
			r.WeakAcc*100, r.StrongAcc*100),
		"fine-tune steps", "scratch", "weak pre-train", "strong pre-train")
	for i, cp := range r.Checkpoints {
		t.AddRow(fmt.Sprintf("%d", cp),
			fmt.Sprintf("%.3f", r.Scratch[i]),
			fmt.Sprintf("%.3f", r.WeakPre[i]),
			fmt.Sprintf("%.3f", r.StrongPre[i]))
	}
	return t
}

// Fig6Result carries accuracy and fine-tuning cost per locked prefix.
type Fig6Result struct {
	Locked   []int
	Accuracy []float64
	// TrainSeconds is the measured wall time of the fine-tune.
	TrainSeconds []float64
	// TrainFlops is the exact GEMM work of the fine-tune (multiply-add
	// flops, metered via tensor.GemmFlopsTotal). Unlike wall time it is
	// deterministic, so the "locking saves compute" claim can be tested
	// without timing noise.
	TrainFlops []int64
	// ModelSpeedup is the op-model speedup at paper scale (AlexNet).
	ModelSpeedup []float64
}

// Fig6 reproduces "Accuracy and Time Comparisons by Fine-tuning Different
// Layers": CONV-i locking during adaptation to a shifted distribution.
func Fig6(s Scale) Fig6Result {
	g := dataset.NewGenerator(s.Classes, s.Seed+30)
	base := models.TinyAlex(s.Classes, s.Seed+31)
	// Source model: trained on the ideal distribution.
	train.Run(base, g.IdealSet(s.TrainImages), train.DefaultConfig(s.Steps), 0)

	target := g.MixedSet(s.TrainImages, 0.8, 0.8) // shifted distribution
	test := g.MixedSet(s.TestImages, 0.8, 0.8)

	var r Fig6Result
	for locked := 0; locked <= 5; locked++ {
		net := models.TinyAlex(s.Classes, s.Seed+31)
		if _, err := net.CopyWeightsFrom(base); err != nil {
			panic(err)
		}
		cfg := train.DefaultConfig(s.Steps)
		cfg.LR = 0.005
		t0 := time.Now()
		f0 := tensor.GemmFlopsTotal()
		transfer.FineTune(net, target, cfg, locked)
		r.Locked = append(r.Locked, locked)
		r.TrainSeconds = append(r.TrainSeconds, time.Since(t0).Seconds())
		r.TrainFlops = append(r.TrainFlops, tensor.GemmFlopsTotal()-f0)
		r.Accuracy = append(r.Accuracy, train.Evaluate(net, test))
		r.ModelSpeedup = append(r.ModelSpeedup, transfer.UpdateSpeedup(models.AlexNet(), locked))
	}
	return r
}

// Table renders the result.
func (r Fig6Result) Table() *metrics.Table {
	t := metrics.NewTable("Fig. 6 — fine-tuning with locked CONV prefixes",
		"config", "accuracy", "train time (s)", "train GFLOPs", "full-scale speedup")
	for i, l := range r.Locked {
		t.AddRow(fmt.Sprintf("CONV-%d", l),
			fmt.Sprintf("%.3f", r.Accuracy[i]),
			fmt.Sprintf("%.2f", r.TrainSeconds[i]),
			fmt.Sprintf("%.2f", float64(r.TrainFlops[i])/1e9),
			fmt.Sprintf("%.2fx", r.ModelSpeedup[i]))
	}
	return t
}

// Fig7Result carries the incremental fine-tuning comparison.
type Fig7Result struct {
	Names    []string
	Accuracy map[string]float64
	Samples  map[string]int
	Seconds  map[string]float64
}

// Fig7 reproduces "Unsupervised pre-training on Datasets with Different
// Sizes" (the Net-50k / Net-Err / Net-50k-150k / Net-50k-200k study):
// fine-tuning only on the misclassified images nearly matches fine-tuning
// on everything at a fraction of the data and time.
func Fig7(s Scale) Fig7Result {
	g := dataset.NewGenerator(s.Classes, s.Seed+40)
	poolA := g.MixedSet(s.TrainImages/2, 0.5, 0.7) // the "50k" bootstrap
	poolB := g.MixedSet(s.TrainImages*3/2, 0.5, 0.7)
	test := g.MixedSet(s.TestImages, 0.5, 0.7)

	base := models.TinyAlex(s.Classes, s.Seed+41)
	train.Run(base, poolA, train.DefaultConfig(s.Steps), 0)

	r := Fig7Result{
		Accuracy: map[string]float64{},
		Samples:  map[string]int{},
		Seconds:  map[string]float64{},
	}
	record := func(name string, samples []dataset.Sample) {
		net := models.TinyAlex(s.Classes, s.Seed+41)
		if _, err := net.CopyWeightsFrom(base); err != nil {
			panic(err)
		}
		t0 := time.Now()
		if len(samples) > 0 {
			// Fine-tuning passes over the data a fixed number of epochs,
			// so fewer samples means proportionally less training time —
			// the Fig. 7 time axis.
			steps := s.Steps * len(samples) / (s.TrainImages * 2)
			if steps < 20 {
				steps = 20
			}
			cfg := train.DefaultConfig(steps)
			cfg.LR = 0.005
			train.Run(net, samples, cfg, 0)
		}
		r.Names = append(r.Names, name)
		r.Accuracy[name] = train.Evaluate(net, test)
		r.Samples[name] = len(samples)
		r.Seconds[name] = time.Since(t0).Seconds()
	}

	record("Net-base", nil)
	// Net-Err fine-tunes on the misclassified images plus the (already
	// Cloud-resident) bootstrap pool as replay — at laptop scale pure
	// hard-example sets cause catastrophic forgetting that the paper's
	// 150k-image fine-tunes do not suffer. The set stays far smaller
	// than Net-all's.
	errs := transfer.HardExamples(base, poolB)
	record("Net-Err", append(append([]dataset.Sample(nil), errs...), poolA...))
	record("Net-rest", poolB)
	record("Net-all", append(append([]dataset.Sample(nil), poolA...), poolB...))
	return r
}

// Table renders the result.
func (r Fig7Result) Table() *metrics.Table {
	t := metrics.NewTable("Fig. 7 — incremental fine-tuning on valuable (Err) data",
		"net", "accuracy", "samples", "time (s)")
	for _, n := range r.Names {
		t.AddRow(n, fmt.Sprintf("%.3f", r.Accuracy[n]),
			fmt.Sprintf("%d", r.Samples[n]),
			fmt.Sprintf("%.2f", r.Seconds[n]))
	}
	return t
}

// AblationQuant trains one model and measures accuracy, weight traffic
// and measured inference latency for each deployment quantization: the
// 16-bit fixed-point analysis formats (FPGA templates) and the
// executable int8 path (tensor.GemmInt8).
func AblationQuant(s Scale) QuantResult {
	g := dataset.NewGenerator(s.Classes, s.Seed+70)
	net := models.TinyAlex(s.Classes, s.Seed+71)
	train.Run(net, g.MixedSet(s.TrainImages, 0.5, 0.6), train.DefaultConfig(s.Steps), 0)
	test := g.MixedSet(s.TestImages, 0.5, 0.6)
	perImg := func(d time.Duration) float64 {
		return d.Seconds() * 1e3 / float64(len(test))
	}
	t0 := time.Now()
	floatAcc := train.Evaluate(net, test)
	r := QuantResult{
		FloatAcc:       floatAcc,
		FloatLatencyMS: perImg(time.Since(t0)),
		TrafficRatio:   quant.WeightBytesRatio(),
	}
	var float32Weights [][]float32
	for _, p := range net.Params() {
		float32Weights = append(float32Weights, append([]float32(nil), p.Value.Data...))
	}
	restore := func() {
		for i, p := range net.Params() {
			copy(p.Value.Data, float32Weights[i])
		}
	}
	for _, fc := range []struct {
		name string
		f    quant.Format
	}{{"Q7.8", quant.Q7_8}, {"Q3.12", quant.Q3_12}} {
		restore()
		st, err := quant.ApplyToNetwork(net, fc.f)
		if err != nil {
			panic(err)
		}
		t0 = time.Now()
		acc := train.Evaluate(net, test)
		r.Formats = append(r.Formats, fc.name)
		r.Accuracy = append(r.Accuracy, acc)
		r.MaxAbsErr = append(r.MaxAbsErr, st.MaxAbsErr)
		r.Traffic = append(r.Traffic, quant.WeightBytesRatio())
		r.LatencyMS = append(r.LatencyMS, perImg(time.Since(t0)))
	}
	// int8: actually runs quantized arithmetic, not a round-trip analysis.
	restore()
	q := quant.Quantize(net)
	t0 = time.Now()
	int8Acc := q.Evaluate(test)
	r.Formats = append(r.Formats, "int8")
	r.Accuracy = append(r.Accuracy, int8Acc)
	r.MaxAbsErr = append(r.MaxAbsErr, math.NaN())
	r.Traffic = append(r.Traffic, quant.WeightBytesRatioInt8())
	r.LatencyMS = append(r.LatencyMS, perImg(time.Since(t0)))
	return r
}
