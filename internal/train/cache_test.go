package train

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"insitu/internal/dataset"
	"insitu/internal/models"
	"insitu/internal/nn"
)

// runPerStep is Run without the frozen-prefix cache: every step builds
// its batch from the samples and runs the whole TrainStep.
func runPerStep(net *nn.Network, samples []dataset.Sample, cfg Config) []float64 {
	opt := nn.NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay)
	n := len(samples)
	var losses []float64
	for s := 0; s < cfg.Steps; s++ {
		batch := make([]dataset.Sample, cfg.BatchSize)
		for k := range batch {
			batch[k] = samples[(s*cfg.BatchSize+k)%n]
		}
		x, labels := dataset.Batch(batch)
		loss, _ := net.TrainStep(x, labels)
		opt.Step(net.Params())
		losses = append(losses, loss)
	}
	return losses
}

// Run computes a frozen prefix once per call and gathers every step's
// rows from it. Over two consecutive calls on a set the batch size does
// not divide (so steps wrap around its end), every loss, every weight
// and the dropout RNG position must equal, bit for bit, a run that
// forwards the prefix in every step. Run's optimizer lives for one
// call; its momentum shows in the weights of the steps after the first.
func TestRunMatchesPerStepPrefix(t *testing.T) {
	samples := dataset.NewGenerator(4, 61).MixedSet(45, 0.5, 0.6)
	cfg := DefaultConfig(4)
	cfg.BatchSize = 16
	for _, locked := range []int{0, 3, 5} {
		t.Run(fmt.Sprintf("locked=%d", locked), func(t *testing.T) {
			ref, net := models.TinyAlex(4, 62), models.TinyAlex(4, 62)
			var prefixes []string
			for i := 1; i <= locked; i++ {
				prefixes = append(prefixes, fmt.Sprintf("conv%d", i))
			}
			ref.FreezeLayers(prefixes...)
			net.FreezeLayers(prefixes...)
			for call := 0; call < 2; call++ {
				want := runPerStep(ref, samples, cfg)
				got := Run(net, samples, cfg, 1).LossCurve
				for s := range want {
					if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
						t.Fatalf("call %d step %d: loss %v, per-step prefix %v", call, s, got[s], want[s])
					}
				}
				for i, p := range net.Params() {
					q := ref.Params()[i]
					for j, v := range p.Value.Data {
						if math.Float32bits(v) != math.Float32bits(q.Value.Data[j]) {
							t.Fatalf("call %d: %s[%d] = %v, per-step prefix %v", call, p.Name, j, v, q.Value.Data[j])
						}
					}
				}
				var gotRNG, wantRNG bytes.Buffer
				if err := net.SaveLayerState(&gotRNG); err != nil {
					t.Fatal(err)
				}
				if err := ref.SaveLayerState(&wantRNG); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotRNG.Bytes(), wantRNG.Bytes()) {
					t.Fatalf("call %d: dropout RNG state differs", call)
				}
			}
		})
	}
}
