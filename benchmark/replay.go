package main

import (
	"time"

	"insitu/internal/core"
	"insitu/internal/dataset"
	"insitu/internal/deploy"
	"insitu/internal/diagnosis"
	"insitu/internal/jigsaw"
	"insitu/internal/models"
	"insitu/internal/nn"
	"insitu/internal/tensor"
	"insitu/internal/train"
	"insitu/internal/transfer"
	"insitu/internal/wire"
)

// maxReplayNodes bounds how many nodes the staged replay walks; their
// mean stands for all N.
const maxReplayNodes = 8

// countingDiagnoser counts and times Score calls, so the replay can say
// how often the jigsaw net runs per captured image.
type countingDiagnoser struct {
	diagnosis.Diagnoser
	calls int
	spent time.Duration
}

func (c *countingDiagnoser) Score(img *tensor.Tensor) float64 {
	start := time.Now()
	s := c.Diagnoser.Score(img)
	c.spent += time.Since(start)
	c.calls++
	return s
}

// replayResult is one replayed round: layer metrics plus the stage sums
// the reconcile ratio and the layer split are built from.
type replayResult struct {
	metrics map[string]float64
	// nodeSeconds is one node's share of a round (capture phase plus
	// deploy phase), cloudSeconds the server's serial part.
	nodeSeconds  float64
	cloudSeconds float64
	// Stage groups, per node and per round respectively.
	nodeDiagnosisNN float64 // diagnosis.measure + diagnosis.split + node-side train.evaluate
	cloudTraining   float64 // jigsaw.update + transfer.finetune
}

// stagedReplay composes one round of w from the layers' public functions
// on the calling goroutine, with a span around each call: what each node
// does (render, measure, split, encode), what the server does with
// `trained` admitted samples (jigsaw update, fine-tune, recalibrate,
// pack), and what each node does with the bundle (apply, evaluate).
// uploadFrac is the share of captures run A's nodes found unrecognized;
// the replayed diagnoser is calibrated to it so Split uploads as much.
func stagedReplay(w workload, seed uint64, trained int, uploadFrac float64, rec *recorder) replayResult {
	cfg := w.config(seed, 0)
	trace := w.Name + "/replay"
	nodes := min(w.Nodes, maxReplayNodes)
	calibN := w.calibImages()
	evalN := w.EvalSamples
	if evalN <= 0 {
		evalN = 120
	}
	locked := cfg.SharedConvs // SystemInSituAI shares weights

	// The server's models and one node's copies, as fleet builds them.
	permSet := jigsaw.NewPermSet(cfg.PermClasses, cfg.Seed+1)
	cloudJig := jigsaw.NewNet(cfg.PermClasses, cfg.Seed+2)
	cloudInfer := models.TinyAlex(cfg.Classes, cfg.Seed+3)
	trainer := jigsaw.NewTrainer(cloudJig, permSet, 0.005, cfg.Seed+5)
	cloudDiag := diagnosis.NewJigsawDiagnoser(cloudJig, permSet, cfg.Probes, cfg.Seed+6)
	nodeJig := jigsaw.NewNet(cfg.PermClasses, cfg.Seed+2)
	nodeInfer := models.TinyAlex(cfg.Classes, cfg.Seed+3)
	nodeDiag := diagnosis.NewJigsawDiagnoser(nodeJig, permSet, cfg.Probes, cfg.Seed+7)
	gens := make([]*dataset.Generator, nodes)
	for id := range gens {
		gens[id] = dataset.NewGenerator(cfg.Classes, cfg.Seed+101+uint64(id)*131)
	}
	diagnosis.Calibrate(nodeDiag, gens[0].MixedSet(64, cfg.InSituFrac, cfg.Severity), uploadFrac)
	counting := &countingDiagnoser{Diagnoser: nodeDiag}

	var rendered, evaluated, wireImages int
	var wireBytes, metered int64
	render := func(parent int, g *dataset.Generator, n int) []dataset.Sample {
		var set []dataset.Sample
		rec.timed("dataset.render", trace, parent, func() { set = g.MixedSet(n, cfg.InSituFrac, cfg.Severity) })
		rendered += n
		return set
	}
	evaluate := func(parent int, net *nn.Network, set []dataset.Sample) (acc, seconds float64) {
		seconds = rec.timed("train.evaluate", trace, parent, func() { acc = train.Evaluate(net, set) })
		evaluated += len(set)
		return acc, seconds
	}

	round := rec.start("replay.round", trace, 0)

	// Capture phase, node by node.
	var pool, calibs []dataset.Sample
	capturePhase := rec.start("replay.capture", trace, round)
	for _, g := range gens {
		node := rec.start("replay.node_capture", trace, capturePhase)
		capture := render(node, g, w.Capture)
		rec.timed("diagnosis.measure", trace, node, func() { diagnosis.Measure(counting, nodeInfer, capture) })
		calib := render(node, g, calibN)
		var unrecognized []dataset.Sample
		rec.timed("diagnosis.split", trace, node, func() { _, unrecognized = diagnosis.Split(counting, capture) })
		up := wire.Upload{
			Round: 1, Captured: uint32(w.Capture + calibN), CalibN: uint32(calibN),
			Samples: append(unrecognized, calib...), Calib: calib,
		}
		up.Uploaded = uint32(len(up.Samples))
		var payload []byte
		rec.timed("wire.upload_encode", trace, node, func() {
			var err error
			if payload, err = up.Encode(); err != nil {
				panic("benchmark: encoding a replayed upload: " + err.Error())
			}
		})
		rec.timed("wire.upload_decode", trace, node, func() {
			if _, err := wire.DecodeUpload(payload); err != nil {
				panic("benchmark: decoding a replayed upload: " + err.Error())
			}
		})
		wireImages += len(up.Samples) + len(up.Calib)
		wireBytes += int64(len(payload))
		metered += int64(len(up.Samples))
		pool = append(pool, up.Samples...)
		calibs = append(calibs, calib...)
		rec.end(node)
	}
	rec.end(capturePhase)

	// The server's serial part, on as many samples as run A admitted.
	for len(pool) < trained {
		pool = append(pool, gens[0].MixedSet(trained-len(pool), cfg.InSituFrac, cfg.Severity)...)
	}
	trainSet := pool[:trained]
	if w.Cap > 0 && len(calibs) > w.Cap {
		calibs = calibs[:w.Cap]
	}
	cloud := rec.start("replay.cloud", trace, round)
	prefixes := transfer.ConvPrefixes(locked)
	jigSteps := core.StepsFor(len(trainSet))
	update := rec.start("jigsaw.update", trace, cloud)
	cloudJig.FreezeLayers(prefixes...)
	images := make([]*tensor.Tensor, len(trainSet))
	for i, s := range trainSet {
		images[i] = s.Image
	}
	const jigBatch = 16 // fleet.trainJigsaw's batch
	for step := 0; step < jigSteps; step++ {
		i0 := (step * jigBatch) % len(images)
		batch := images[i0:min(i0+jigBatch, len(images))]
		rec.timed("jigsaw.step", trace, update, func() { trainer.Step(batch) })
	}
	cloudJig.UnfreezeLayers(prefixes...)
	rec.end(update)
	// The fleet mixes the fresh set with as many replay-pool samples.
	mixed := append(append([]dataset.Sample(nil), trainSet...), trainSet...)
	tcfg := train.DefaultConfig(core.StepsFor(len(mixed)))
	tcfg.LR = 0.005
	rec.timed("transfer.finetune", trace, cloud, func() { transfer.FineTune(cloudInfer, mixed, tcfg, locked) })
	acc, _ := evaluate(cloud, cloudInfer, calibs)
	errRate := 1 - acc
	rec.timed("diagnosis.calibrate", trace, cloud, func() { diagnosis.Calibrate(cloudDiag, calibs, core.CalibTarget(errRate)) })
	var bundle *deploy.Bundle
	rec.timed("deploy.pack", trace, cloud, func() {
		var err error
		if bundle, err = deploy.Pack(2, cloudInfer, cloudJig, cloudDiag.Threshold()); err != nil {
			panic("benchmark: packing the replayed bundle: " + err.Error())
		}
	})
	var encoded []byte
	rec.timed("deploy.encode", trace, cloud, func() {
		var err error
		if encoded, err = bundle.EncodeBytes(); err != nil {
			panic("benchmark: encoding the replayed bundle: " + err.Error())
		}
	})
	rec.end(cloud)

	// Deploy phase, node by node: every node starts from version 1.
	deployPhase := rec.start("replay.deploy", trace, round)
	var nodeEval float64
	for _, g := range gens {
		node := rec.start("replay.node_deploy", trace, deployPhase)
		rec.timed("deploy.deliver", trace, node, func() {
			res := deploy.Downlink{Retries: cfg.DeployRetries}.Deliver(bundle, deploy.Target{
				Current: 1, Inference: nodeInfer, Jigsaw: nodeJig, Diag: nodeDiag,
			})
			if res.Failed {
				panic("benchmark: replayed delivery failed on a perfect link")
			}
		})
		_, seconds := evaluate(node, nodeInfer, render(node, g, evalN))
		nodeEval += seconds
		rec.end(node)
	}
	rec.end(deployPhase)
	rec.end(round)

	sum := rec.seconds
	perNode := func(name string) float64 { return sum(name) / float64(nodes) }
	captured := float64(nodes * w.Capture)
	res := replayResult{
		nodeSeconds:     perNode("replay.node_capture") + perNode("replay.node_deploy"),
		cloudSeconds:    sum("replay.cloud"),
		nodeDiagnosisNN: perNode("diagnosis.measure") + perNode("diagnosis.split") + nodeEval/float64(nodes),
		cloudTraining:   sum("jigsaw.update") + sum("transfer.finetune"),
	}
	res.metrics = map[string]float64{
		"dataset.render_us_per_image":     sum("dataset.render") / float64(rendered) * 1e6,
		"diagnosis.score_us":              counting.spent.Seconds() / float64(counting.calls) * 1e6,
		"diagnosis.score_calls_per_image": float64(counting.calls) / captured,
		"diagnosis.measure_us_per_image":  sum("diagnosis.measure") / captured * 1e6,
		"diagnosis.split_us_per_image":    sum("diagnosis.split") / captured * 1e6,
		"diagnosis.calibrate_ms":          sum("diagnosis.calibrate") * 1e3,
		"jigsaw.step_ms":                  sum("jigsaw.step") / float64(jigSteps) * 1e3,
		"jigsaw.update_s_per_round":       sum("jigsaw.update"),
		"transfer.finetune_step_ms":       sum("transfer.finetune") / float64(tcfg.Steps) * 1e3,
		"transfer.finetune_s_per_round":   sum("transfer.finetune"),
		"train.evaluate_us_per_image":     sum("train.evaluate") / float64(evaluated) * 1e6,
		"deploy.pack_ms":                  sum("deploy.pack") * 1e3,
		"deploy.encode_ms":                sum("deploy.encode") * 1e3,
		"deploy.bundle_kb":                float64(len(encoded)) / 1024,
		"deploy.deliver_ms":               perNode("deploy.deliver") * 1e3,
		"wire.upload_encode_us_per_image": sum("wire.upload_encode") / float64(wireImages) * 1e6,
		"wire.upload_decode_us_per_image": sum("wire.upload_decode") / float64(wireImages) * 1e6,
		"wire.upload_bytes_per_image":     float64(wireBytes) / float64(metered),
	}
	return res
}
