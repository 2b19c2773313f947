package jigsaw

import (
	"testing"
	"testing/quick"

	"insitu/internal/dataset"
	"insitu/internal/models"
	"insitu/internal/tensor"
)

func TestPermSetAllValidAndDistinct(t *testing.T) {
	set := NewPermSet(50, 1)
	if set.Len() != 50 {
		t.Fatalf("Len = %d", set.Len())
	}
	seen := map[Permutation]bool{}
	for _, p := range set.Perms {
		var tiles [GridTiles]bool
		for _, v := range p {
			if v < 0 || v >= GridTiles || tiles[v] {
				t.Fatalf("invalid permutation %v", p)
			}
			tiles[v] = true
		}
		if seen[p] {
			t.Fatalf("duplicate permutation %v", p)
		}
		seen[p] = true
	}
}

func TestPermSetMaxHammingBeatsRandom(t *testing.T) {
	// The greedy max-min construction must keep permutations far apart:
	// min pairwise Hamming well above what i.i.d. random picks achieve.
	set := NewPermSet(30, 2)
	for i, p := range set.Perms {
		for _, q := range set.Perms[i+1:] {
			if d := p.Hamming(q); d < 5 {
				t.Fatalf("pairwise Hamming = %d, want >= 5", d)
			}
		}
	}
}

func TestHammingProperties(t *testing.T) {
	a := Permutation{0, 1, 2, 3, 4, 5, 6, 7, 8}
	if a.Hamming(a) != 0 {
		t.Fatal("self distance nonzero")
	}
	b := Permutation{1, 0, 2, 3, 4, 5, 6, 7, 8}
	if a.Hamming(b) != 2 {
		t.Fatalf("swap distance = %d, want 2", a.Hamming(b))
	}
}

func TestTileExtraction(t *testing.T) {
	const S, P = models.ImgSize, models.PatchSize
	img := tensor.New(1, S, S)
	// pixel value encodes its coordinates
	for y := 0; y < S; y++ {
		for x := 0; x < S; x++ {
			img.Set(float32(y*S+x), 0, y, x)
		}
	}
	dst := tensor.New(1, P, P)
	// Tile 4 is the center tile: origin (P, P).
	Tile(img, 4, dst)
	for y := 0; y < P; y++ {
		for x := 0; x < P; x++ {
			want := float32((P+y)*S + P + x)
			if dst.At(0, y, x) != want {
				t.Fatalf("tile(4)[%d,%d] = %v, want %v", y, x, dst.At(0, y, x), want)
			}
		}
	}
}

func TestShufflePlacesTiles(t *testing.T) {
	const S, P = models.ImgSize, models.PatchSize
	img := tensor.New(1, S, S)
	// Mark each tile with its index.
	for ti := 0; ti < GridTiles; ti++ {
		ty, tx := ti/3, ti%3
		for y := 0; y < P; y++ {
			for x := 0; x < P; x++ {
				img.Set(float32(ti), 0, ty*P+y, tx*P+x)
			}
		}
	}
	perm := Permutation{4, 7, 0, 3, 8, 5, 1, 6, 2} // the paper's example
	out := Shuffle(img, perm)
	if out.Dim(0) != GridTiles || out.Dim(2) != P {
		t.Fatalf("shuffle shape %v", out.Shape())
	}
	for slot := 0; slot < GridTiles; slot++ {
		if got := out.At(slot, 0, 0, 0); got != float32(perm[slot]) {
			t.Fatalf("slot %d holds tile %v, want %d", slot, got, perm[slot])
		}
	}
}

// Property: shuffling is lossless — the multiset of tile contents is
// preserved for any valid permutation.
func TestQuickShuffleLossless(t *testing.T) {
	r := tensor.NewRNG(3)
	set := NewPermSet(20, 4)
	f := func(permIdx uint8) bool {
		img := tensor.New(models.ImgChannels, models.ImgSize, models.ImgSize)
		img.FillNormal(r, 0, 1)
		perm := set.At(int(permIdx) % set.Len())
		out := Shuffle(img, perm)
		var sumIn, sumOut float64
		for _, v := range img.Data {
			sumIn += float64(v)
		}
		for _, v := range out.Data {
			sumOut += float64(v)
		}
		return absf(sumIn-sumOut) < 1e-2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestRegroupRoundTrip(t *testing.T) {
	l := NewRegroup("rg", 9)
	x := tensor.New(18, 5)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	y := l.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 45 {
		t.Fatalf("regroup shape %v", y.Shape())
	}
	back := l.Backward(y)
	if back.Dim(0) != 18 || back.Dim(1) != 5 {
		t.Fatalf("regroup backward shape %v", back.Shape())
	}
	for i := range x.Data {
		if back.Data[i] != x.Data[i] {
			t.Fatal("regroup not a bijection")
		}
	}
}

func TestBatchLayout(t *testing.T) {
	g := dataset.NewGenerator(4, 5)
	set := NewPermSet(10, 6)
	var images []*tensor.Tensor
	for _, s := range g.IdealSet(3) {
		images = append(images, s.Image)
	}
	x := Batch(images, []int{0, 5, 9}, set)
	if x.Dim(0) != 3*GridTiles {
		t.Fatalf("batch rows = %d, want 27", x.Dim(0))
	}
	// Row block i must equal Shuffle(images[i], perm).
	want := Shuffle(images[1], set.At(5))
	per := want.Size()
	for j := 0; j < per; j += 53 {
		if x.Data[per+j] != want.Data[j] {
			t.Fatal("batch block 1 mismatch")
		}
	}
}

func TestNetForwardShape(t *testing.T) {
	net := NewNet(16, 1)
	g := dataset.NewGenerator(4, 2)
	set := NewPermSet(16, 3)
	var images []*tensor.Tensor
	for _, s := range g.IdealSet(4) {
		images = append(images, s.Image)
	}
	rng := tensor.NewRNG(4)
	x, labels := RandomBatch(images, set, rng)
	if len(labels) != 4 {
		t.Fatalf("labels = %d", len(labels))
	}
	y := net.Forward(x, false)
	if y.Dim(0) != 4 || y.Dim(1) != 16 {
		t.Fatalf("net output %v, want [4 16]", y.Shape())
	}
}

func TestJigsawLearnsAboveChance(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	const perms = 8
	g := dataset.NewGenerator(5, 7)
	set := NewPermSet(perms, 8)
	net := NewNet(perms, 9)
	tr := NewTrainer(net, set, 0.01, 10)
	var pool []*tensor.Tensor
	for _, s := range g.MixedSet(128, 0.5, 0.6) {
		pool = append(pool, s.Image)
	}
	for step := 0; step < 120; step++ {
		i0 := (step * 16) % 128
		end := i0 + 16
		if end > 128 {
			end = 128
		}
		tr.Step(pool[i0:end])
	}
	var eval []*tensor.Tensor
	for _, s := range g.MixedSet(100, 0.5, 0.6) {
		eval = append(eval, s.Image)
	}
	acc := tr.Evaluate(eval)
	if acc < 2.5/perms {
		t.Fatalf("jigsaw accuracy %v, want well above chance %v", acc, 1.0/perms)
	}
}

// One jigsaw training step on 16 images, with the trunk trainable and
// frozen (as the Cloud's incremental rounds run it). With the trunk
// frozen, backward stops at the head: the 3 convs × 9 tiles × 16 images
// do no backward work.
func BenchmarkTrainerStep(b *testing.B) {
	var images []*tensor.Tensor
	for _, s := range dataset.NewGenerator(4, 11).MixedSet(16, 0.5, 0.6) {
		images = append(images, s.Image)
	}
	for _, trunk := range []string{"trainable", "frozen"} {
		b.Run("trunk="+trunk, func(b *testing.B) {
			net := NewNet(16, 12)
			if trunk == "frozen" {
				net.FreezeLayers("conv1", "conv2", "conv3")
			}
			tr := NewTrainer(net, NewPermSet(16, 13), 0.01, 14)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Step(images)
			}
		})
	}
}
