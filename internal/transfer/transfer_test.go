package transfer

import (
	"fmt"
	"testing"

	"insitu/internal/dataset"
	"insitu/internal/jigsaw"
	"insitu/internal/models"
	"insitu/internal/tensor"
	"insitu/internal/train"
)

func TestConvPrefixes(t *testing.T) {
	p := ConvPrefixes(3)
	if len(p) != 3 || p[0] != "conv1" || p[2] != "conv3" {
		t.Fatalf("ConvPrefixes(3) = %v", p)
	}
	if len(ConvPrefixes(0)) != 0 {
		t.Fatal("ConvPrefixes(0) not empty")
	}
}

func TestFromUnsupervisedCopiesTrunk(t *testing.T) {
	jig := jigsaw.NewNet(10, 1)
	inf := models.TinyAlex(5, 2)
	copied, err := FromUnsupervised(inf, jig, 3)
	if err != nil {
		t.Fatal(err)
	}
	if copied != 6 {
		t.Fatalf("copied %d params, want 6", copied)
	}
	// conv1 weights must now be identical.
	var jw, iw []float32
	for _, p := range jig.Params() {
		if p.Name == "conv1.W" {
			jw = p.Value.Data
		}
	}
	for _, p := range inf.Params() {
		if p.Name == "conv1.W" {
			iw = p.Value.Data
		}
	}
	for i := range jw {
		if jw[i] != iw[i] {
			t.Fatal("conv1 weights differ after transfer")
		}
	}
}

func TestFineTuneRestoresFrozenState(t *testing.T) {
	net := models.TinyAlex(4, 3)
	g := dataset.NewGenerator(4, 4)
	samples := g.IdealSet(16)
	cfg := train.DefaultConfig(2)
	cfg.BatchSize = 8
	FineTune(net, samples, cfg, 3)
	for _, p := range net.Params() {
		if p.Frozen {
			t.Fatalf("%s still frozen after FineTune", p.Name)
		}
	}
}

func TestFineTuneLockedLayersUnchanged(t *testing.T) {
	net := models.TinyAlex(4, 5)
	var before []float32
	for _, p := range net.Params() {
		if p.Name == "conv2.W" {
			before = append([]float32(nil), p.Value.Data...)
		}
	}
	g := dataset.NewGenerator(4, 6)
	cfg := train.DefaultConfig(3)
	cfg.BatchSize = 8
	FineTune(net, g.IdealSet(24), cfg, 3)
	for _, p := range net.Params() {
		if p.Name == "conv2.W" {
			for i := range before {
				if p.Value.Data[i] != before[i] {
					t.Fatal("locked conv2 weights changed")
				}
			}
		}
	}
}

func TestUpdateSpeedupMatchesPaperScale(t *testing.T) {
	// Paper Fig. 6: sharing conv1..conv3 of AlexNet gives ~1.7× training
	// speedup. Our op model should land in that neighborhood.
	s := UpdateSpeedup(models.AlexNet(), 3)
	if s < 1.2 || s > 2.2 {
		t.Fatalf("CONV-3 speedup = %v, want ~1.7", s)
	}
	// Locking everything conv gives the largest speedup.
	s5 := UpdateSpeedup(models.AlexNet(), 5)
	if s5 <= s {
		t.Fatalf("CONV-5 speedup %v not above CONV-3 %v", s5, s)
	}
	if UpdateSpeedup(models.AlexNet(), 0) != 1 {
		t.Fatal("CONV-0 speedup must be 1")
	}
}

func TestTrainingOpsPerSampleAccounting(t *testing.T) {
	spec := models.NetSpec{Name: "t", Layers: []models.LayerSpec{
		{Name: "conv1", Kind: models.Conv, N: 1, M: 1, K: 1, R: 10, C: 10}, // 200 ops
		models.FCSpec("fc", 10, 10),                                        // 200 ops
	}}
	// Unlocked: 3×(200+200) = 1200. conv1 locked: 2×200 + 3×200 = 1000.
	// With 9 conv copies (jigsaw patches) the conv term is 9× as large.
	for _, tc := range []struct {
		locked int
		copies int64
		want   int64
	}{{0, 1, 1200}, {1, 1, 1000}, {0, 9, 3*9*200 + 3*200}, {1, 9, 2*9*200 + 3*200}} {
		if got := TrainingOpsPerSample(spec, tc.locked, tc.copies); got != tc.want {
			t.Fatalf("locked %d, copies %d: ops = %d, want %d", tc.locked, tc.copies, got, tc.want)
		}
	}
}

// The paper's core transfer claim (Fig. 5): starting from an unsupervised
// pre-trained trunk yields better accuracy than training from scratch on
// the same limited labeled data.
func TestTransferBeatsScratchOnLimitedLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	const classes = 5
	g := dataset.NewGenerator(classes, 7)

	// Unsupervised pre-training on "big raw IoT data" (unlabeled).
	set := jigsaw.NewPermSet(8, 8)
	jig := jigsaw.NewNet(8, 9)
	jtr := jigsaw.NewTrainer(jig, set, 0.01, 10)
	pool := g.MixedSet(192, 0.5, 0.6)
	var images []*tensor.Tensor
	for _, s := range pool {
		images = append(images, s.Image)
	}
	for step := 0; step < 100; step++ {
		i0 := (step * 16) % 192
		jtr.Step(images[i0 : i0+16])
	}

	// Limited labeled data.
	labeled := g.MixedSet(48, 0.5, 0.6)
	test := g.MixedSet(200, 0.5, 0.6)
	cfg := train.DefaultConfig(60)
	cfg.BatchSize = 16

	scratch := models.TinyAlex(classes, 11)
	train.Run(scratch, labeled, cfg, 0)
	scratchAcc := train.Evaluate(scratch, test)

	transferred := models.TinyAlex(classes, 11)
	if _, err := FromUnsupervised(transferred, jig, 3); err != nil {
		t.Fatal(err)
	}
	train.Run(transferred, labeled, cfg, 0)
	transferAcc := train.Evaluate(transferred, test)

	t.Logf("scratch %.3f transfer %.3f", scratchAcc, transferAcc)
	if transferAcc < scratchAcc-0.02 {
		t.Fatalf("transfer (%v) clearly worse than scratch (%v)", transferAcc, scratchAcc)
	}
}

// One fine-tune step (batch 32, TinyAlex) with nothing locked and with
// the paper's CONV-3 lock. Locked layers below the lowest trainable one
// do no backward work at all, so locked=3 should be the cheaper step.
func BenchmarkFineTuneStep(b *testing.B) {
	samples := dataset.NewGenerator(4, 8).MixedSet(128, 0.5, 0.6)
	for _, locked := range []int{0, 3} {
		b.Run(fmt.Sprintf("locked=%d", locked), func(b *testing.B) {
			net := models.TinyAlex(4, 9)
			b.ReportAllocs()
			b.ResetTimer()
			FineTune(net, samples, train.DefaultConfig(b.N), locked)
		})
	}
}
