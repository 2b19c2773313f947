package jigsaw

import (
	"bytes"
	"math"
	"testing"

	"insitu/internal/dataset"
	"insitu/internal/tensor"
)

// trainPerStep is Train as a loop of Steps: every step shuffles its
// images and runs the whole TrainStep on them.
func trainPerStep(t *Trainer, images []*tensor.Tensor, steps int) (loss float64) {
	for s := 0; s < steps; s++ {
		i0 := (s * 16) % len(images)
		loss, _ = t.Step(images[i0:min(i0+16, len(images))])
	}
	return loss
}

// Train runs the frozen prefix once per call and gathers every step's
// rows from it. With the trunk frozen and trainable, over two
// consecutive calls on a set 16 does not divide (so the last batch of a
// pass is clipped), the losses, weights, SGD momentum and the
// permutation stream's position must equal, bit for bit, per-step
// training.
func TestTrainMatchesPerStepPrefix(t *testing.T) {
	var images []*tensor.Tensor
	for _, s := range dataset.NewGenerator(4, 71).MixedSet(37, 0.5, 0.6) {
		images = append(images, s.Image)
	}
	for _, trunk := range []string{"trainable", "frozen"} {
		t.Run("trunk="+trunk, func(t *testing.T) {
			set := NewPermSet(8, 72)
			ref := NewTrainer(NewNet(8, 73), set, 0.01, 74)
			tr := NewTrainer(NewNet(8, 73), set, 0.01, 74)
			if trunk == "frozen" {
				ref.Net.FreezeLayers("conv1", "conv2", "conv3")
				tr.Net.FreezeLayers("conv1", "conv2", "conv3")
			}
			for call := 0; call < 2; call++ {
				want := trainPerStep(ref, images, 5)
				if got := tr.Train(images, 5); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("call %d: loss %v, per-step prefix %v", call, got, want)
				}
				for i, p := range tr.Net.Params() {
					q := ref.Net.Params()[i]
					for j, v := range p.Value.Data {
						if math.Float32bits(v) != math.Float32bits(q.Value.Data[j]) {
							t.Fatalf("call %d: %s[%d] = %v, per-step prefix %v", call, p.Name, j, v, q.Value.Data[j])
						}
					}
				}
				var gotV, wantV bytes.Buffer
				if err := tr.Opt.SaveState(&gotV, tr.Net.Params()); err != nil {
					t.Fatal(err)
				}
				if err := ref.Opt.SaveState(&wantV, ref.Net.Params()); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotV.Bytes(), wantV.Bytes()) {
					t.Fatalf("call %d: SGD momentum differs", call)
				}
				if tr.RNGState() != ref.RNGState() {
					t.Fatalf("call %d: permutation stream at %d, per-step prefix at %d", call, tr.RNGState(), ref.RNGState())
				}
			}
		})
	}
}
