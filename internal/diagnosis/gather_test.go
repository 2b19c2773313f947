package diagnosis

import (
	"fmt"
	"math"
	"testing"

	"insitu/internal/dataset"
	"insitu/internal/jigsaw"
	"insitu/internal/models"
	"insitu/internal/nn"
	"insitu/internal/tensor"
)

// shuffledScores is the probe scoring ScoreBatch replaced, kept as the
// reference: every image is cut and shuffled once per probe, slot s
// holding original tile perm[s], and all shuffles run through the whole
// network in one forward.
func shuffledScores(net *nn.Network, set *jigsaw.PermSet, probes int, imgs []*tensor.Tensor) []float64 {
	const P = models.PatchSize
	per := models.ImgChannels * P * P
	x := tensor.New(len(imgs)*probes*jigsaw.GridTiles, models.ImgChannels, P, P)
	var labels []int
	for n, img := range imgs {
		for i := 0; i < probes; i++ {
			label := (i * set.Len()) / probes
			labels = append(labels, label)
			for slot, orig := range set.At(label) {
				r := (n*probes+i)*jigsaw.GridTiles + slot
				jigsaw.Tile(img, orig, tensor.FromSlice(x.Data[r*per:(r+1)*per], models.ImgChannels, P, P))
			}
		}
	}
	probs := nn.Softmax(net.Forward(x, false))
	scores := make([]float64, len(imgs))
	for n := range imgs {
		for i := 0; i < probes; i++ {
			r := n*probes + i
			scores[n] += float64(probs.At(r, labels[r]))
		}
		scores[n] /= float64(probes)
	}
	return scores
}

// ScoreBatch runs the trunk once per tile and gathers each probe's
// rows from those features. Its scores must equal, bit for bit, the
// shuffle-then-forward reference, at 1, 3 and 16 images and at 1, 3 and
// every probe: the head sees the same rows in the same order, so even
// its small-batch GEMM path matches. Gathering by tile order instead of
// slot order (slot perm[s] taking tile s) must fail this test.
func TestScoreBatchMatchesShuffledForward(t *testing.T) {
	const perms = 8
	set := jigsaw.NewPermSet(perms, 81)
	net := jigsaw.NewNet(perms, 82)
	var imgs []*tensor.Tensor
	for _, s := range dataset.NewGenerator(4, 83).MixedSet(16, 0.5, 0.6) {
		imgs = append(imgs, s.Image)
	}
	for _, n := range []int{1, 3, 16} {
		for _, probes := range []int{1, 3, perms} {
			t.Run(fmt.Sprintf("images=%d/probes=%d", n, probes), func(t *testing.T) {
				d := NewJigsawDiagnoser(net, set, probes, 0)
				got := make([]float64, n)
				d.ScoreBatch(imgs[:n], got)
				want := shuffledScores(net, set, probes, imgs[:n])
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("image %d: score %v, shuffled forward %v", i, got[i], want[i])
					}
				}
			})
		}
	}
}
