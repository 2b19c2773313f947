// Quickstart: the In-situ AI loop in one file.
//
// It builds a synthetic IoT world, pre-trains the unsupervised jigsaw
// network on unlabeled data, transfer-learns an inference network from
// it, deploys both to a node as inference + diagnosis tasks, and shows
// the node filtering a fresh capture so that only valuable (unrecognized)
// images would move to the Cloud.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"insitu/internal/dataset"
	"insitu/internal/diagnosis"
	"insitu/internal/jigsaw"
	"insitu/internal/models"
	"insitu/internal/tensor"
	"insitu/internal/train"
	"insitu/internal/transfer"
)

func main() {
	const (
		classes = 5
		perms   = 8
		seed    = 42
	)
	world := dataset.NewGenerator(classes, seed)

	// 1. Unsupervised pre-training on big raw (unlabeled) IoT data.
	fmt.Println("1) unsupervised jigsaw pre-training on 192 unlabeled images...")
	permSet := jigsaw.NewPermSet(perms, seed+1)
	jigNet := jigsaw.NewNet(perms, seed+2)
	trainer := jigsaw.NewTrainer(jigNet, permSet, 0.01, seed+3)
	pool := world.MixedSet(192, 0.5, 0.6)
	images := make([]*tensor.Tensor, len(pool))
	for i := range pool {
		images[i] = pool[i].Image
	}
	trainer.Train(images, 120)
	fmt.Printf("   jigsaw task accuracy: %.2f (chance %.2f)\n",
		trainer.Evaluate(images[:64]), 1.0/perms)

	// 2. Transfer learning: copy the shared CONV trunk, fine-tune on a
	// small labeled set.
	fmt.Println("2) transfer learning into the inference network (48 labels)...")
	inference := models.TinyAlex(classes, seed+4)
	if _, err := transfer.FromUnsupervised(inference, jigNet, 3); err != nil {
		panic(err)
	}
	labeled := world.MixedSet(48, 0.5, 0.6)
	train.Run(inference, labeled, train.DefaultConfig(60), 0)
	test := world.MixedSet(200, 0.5, 0.6)
	fmt.Printf("   inference accuracy: %.2f\n", train.Evaluate(inference, test))

	// 3. Deploy the diagnosis task on the node and filter a capture.
	fmt.Println("3) node-side diagnosis on a fresh capture of 100 images...")
	diag := diagnosis.NewJigsawDiagnoser(jigNet, permSet, 3, seed+5)
	diagnosis.Calibrate(diag, labeled, 0.4)
	capture := world.MixedSet(100, 0.5, 0.6)
	recognized, unrecognized := diagnosis.Split(diag, capture)
	fmt.Printf("   recognized locally: %d, uploaded to Cloud: %d (%.0f%% data movement saved)\n",
		len(recognized), len(unrecognized),
		100*(1-float64(len(unrecognized))/float64(len(capture))))
	q := diagnosis.Measure(diag, inference, capture)
	fmt.Printf("   diagnosis vs ground truth: recall %.2f, precision %.2f\n",
		q.ErrorRecall, q.Precision)
}
