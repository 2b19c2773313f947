package jigsaw

import (
	"fmt"

	"insitu/internal/models"
	"insitu/internal/nn"
	"insitu/internal/tensor"
)

// Regroup folds the tile dimension back into the feature dimension:
// forward reshapes [B·G, F] → [B, G·F]. It makes the 9 tiles share one
// trunk (the paper's second level of weight sharing — all patches use the
// same CONV weights) while letting the head see all tiles jointly.
type Regroup struct {
	name  string
	Group int
}

// NewRegroup returns a Regroup layer folding groups of g rows.
func NewRegroup(name string, g int) *Regroup { return &Regroup{name: name, Group: g} }

// Name implements nn.Layer.
func (l *Regroup) Name() string { return l.name }

// Params implements nn.Layer.
func (l *Regroup) Params() []*nn.Param { return nil }

// Forward implements nn.Layer.
func (l *Regroup) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	bg, f := x.Dim(0), x.Dim(1)
	if bg%l.Group != 0 {
		panic(fmt.Sprintf("jigsaw: regroup input rows %d not divisible by %d", bg, l.Group))
	}
	return x.Reshape(bg/l.Group, l.Group*f)
}

// Backward implements nn.Layer.
func (l *Regroup) Backward(dy *tensor.Tensor) *tensor.Tensor {
	b, gf := dy.Dim(0), dy.Dim(1)
	return dy.Reshape(b*l.Group, gf/l.Group)
}

// TrunkDepth returns the index of net's Regroup layer: the layers below
// it run on each tile alone.
func TrunkDepth(net *nn.Network) int {
	for i, l := range net.Layers {
		if _, ok := l.(*Regroup); ok {
			return i
		}
	}
	panic(fmt.Sprintf("jigsaw: network %q has no regroup layer", net.Name))
}

// NewNet builds the jigsaw (diagnosis/unsupervised) network: the shared
// per-patch trunk (conv1..conv3, weight-compatible with TinyAlex),
// flatten, regroup over the 9 tiles, and a 2-layer FCN head classifying
// the permutation index over permClasses classes.
func NewNet(permClasses int, seed uint64) *nn.Network {
	r := tensor.NewRNG(seed)
	layers := models.JigsawTrunk(r)
	layers = append(layers,
		nn.NewFlatten("flat"),
		NewRegroup("regroup", GridTiles),
		nn.NewDense("fc_jig1", GridTiles*models.JigsawTrunkFeatures, 128, r),
		nn.NewReLU("relu_jig1"),
		nn.NewDense("fc_jig2", 128, permClasses, r),
	)
	return nn.NewNetwork("JigsawNet", layers...)
}

// Trainer drives unsupervised pre-training of a jigsaw net on unlabeled
// images.
type Trainer struct {
	Net *nn.Network
	Set *PermSet
	Opt *nn.SGD
	rng *tensor.RNG
}

// NewTrainer wires a jigsaw net, permutation set and optimizer.
func NewTrainer(net *nn.Network, set *PermSet, lr float32, seed uint64) *Trainer {
	return &Trainer{
		Net: net,
		Set: set,
		Opt: nn.NewSGD(lr, 0.9, 1e-4),
		rng: tensor.NewRNG(seed),
	}
}

// RNGState exposes the permutation-sampling stream position for
// checkpointing.
func (t *Trainer) RNGState() uint64 { return t.rng.State() }

// SetRNGState rewinds the permutation-sampling stream to a saved
// position.
func (t *Trainer) SetRNGState(s uint64) { t.rng.SetState(s) }

// trainBatch is how many images one step of Train takes.
const trainBatch = 16

// Train runs steps unsupervised training steps over images: step s is
// Step on the up to 16 images from (16·s) mod len(images) on, clipped at
// the end of the set, and it draws the same permutations. The net's
// frozen prefix (nn.Network.FrozenDepth) runs over every image's tiles
// once per call, 16 images at a time, and each step gathers its rows
// from that: a frozen trunk costs one forward per image per call instead
// of one per visit. Freezing is the caller's and must not change during
// the call. Train returns the last step's loss.
func (t *Trainer) Train(images []*tensor.Tensor, steps int) (loss float64) {
	feats := t.Net.ForwardFrozenChunks(len(images), trainBatch, func(i0, i1 int) *tensor.Tensor {
		return tiles(images[i0:i1])
	})
	for s := 0; s < steps; s++ {
		i0 := (s * trainBatch) % len(images)
		labels := make([]int, min(trainBatch, len(images)-i0))
		for i := range labels {
			labels[i] = t.rng.Intn(t.Set.Len())
		}
		loss, _ = t.Net.TrainStepAbove(gatherFrom(feats, i0, labels, t.Set), labels)
		t.Opt.Step(t.Net.Params())
	}
	return loss
}

// Step runs one unsupervised training step on a batch of unlabeled
// images, returning the task loss and accuracy.
func (t *Trainer) Step(images []*tensor.Tensor) (loss, acc float64) {
	x, labels := RandomBatch(images, t.Set, t.rng)
	loss, acc = t.Net.TrainStep(x, labels)
	t.Opt.Step(t.Net.Params())
	return loss, acc
}

// Evaluate measures permutation-prediction accuracy on unlabeled images
// (each probed with one random permutation).
func (t *Trainer) Evaluate(images []*tensor.Tensor) float64 {
	x, labels := RandomBatch(images, t.Set, t.rng)
	return t.Net.Evaluate(x, labels)
}
