package diagnosis

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"insitu/internal/dataset"
	"insitu/internal/jigsaw"
	"insitu/internal/models"
	"insitu/internal/tensor"
)

// fakeDiagnoser scores images by their mean pixel value — deterministic
// and cheap for unit-testing the generic machinery.
type fakeDiagnoser struct{ threshold float64 }

func (f *fakeDiagnoser) Score(img *tensor.Tensor) float64 {
	return img.Sum() / float64(img.Size())
}
func (f *fakeDiagnoser) Threshold() float64     { return f.threshold }
func (f *fakeDiagnoser) SetThreshold(t float64) { f.threshold = t }

func TestSplitPartitionsCompletely(t *testing.T) {
	g := dataset.NewGenerator(4, 1)
	samples := g.MixedSet(60, 0.5, 0.8)
	d := &fakeDiagnoser{threshold: 0.4}
	rec, unrec := Split(d, samples)
	if len(rec)+len(unrec) != 60 {
		t.Fatalf("partition lost samples: %d + %d", len(rec), len(unrec))
	}
	for _, s := range rec {
		if d.Score(s.Image) < d.Threshold() {
			t.Fatal("recognized sample scores below threshold")
		}
	}
	for _, s := range unrec {
		if d.Score(s.Image) >= d.Threshold() {
			t.Fatal("unrecognized sample scores above threshold")
		}
	}
}

func TestCalibrateHitsTargetFraction(t *testing.T) {
	g := dataset.NewGenerator(4, 2)
	samples := g.MixedSet(200, 0.5, 0.8)
	d := &fakeDiagnoser{}
	Calibrate(d, samples, 0.3)
	_, unrec := Split(d, samples)
	frac := float64(len(unrec)) / 200
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("calibrated upload fraction %v, want ~0.3", frac)
	}
}

func TestCalibrateEdgeFractions(t *testing.T) {
	g := dataset.NewGenerator(4, 3)
	samples := g.IdealSet(50)
	d := &fakeDiagnoser{}
	Calibrate(d, samples, 0)
	_, unrec := Split(d, samples)
	if len(unrec) > 2 {
		t.Fatalf("fraction 0 still uploads %d", len(unrec))
	}
	Calibrate(d, samples, 1.0)
	rec, _ := Split(d, samples)
	if len(rec) > 2 {
		t.Fatalf("fraction 1 still recognizes %d", len(rec))
	}
	Calibrate(d, nil, 0.5) // must not panic on empty set
}

func TestJigsawDiagnoserScoreRange(t *testing.T) {
	set := jigsaw.NewPermSet(8, 1)
	net := jigsaw.NewNet(8, 2)
	d := NewJigsawDiagnoser(net, set, 4, 3)
	g := dataset.NewGenerator(4, 4)
	for _, s := range g.MixedSet(10, 0.5, 0.5) {
		sc := d.Score(s.Image)
		if sc < 0 || sc > 1 {
			t.Fatalf("score out of range: %v", sc)
		}
	}
}

func TestJigsawDiagnoserDeterministicProbes(t *testing.T) {
	set := jigsaw.NewPermSet(8, 1)
	net := jigsaw.NewNet(8, 2)
	d := NewJigsawDiagnoser(net, set, 4, 3)
	g := dataset.NewGenerator(4, 5)
	s := g.Ideal()
	a, b := d.Score(s.Image), d.Score(s.Image)
	if a != b {
		t.Fatalf("probe schedule not deterministic: %v vs %v", a, b)
	}
}

func TestConfidenceDiagnoserMatchesTopProb(t *testing.T) {
	net := models.TinyAlex(4, 1)
	d := NewConfidenceDiagnoser(net)
	g := dataset.NewGenerator(4, 6)
	s := g.Ideal()
	sc := d.Score(s.Image)
	if sc < 1.0/4 || sc > 1 {
		t.Fatalf("confidence score %v outside [0.25, 1]", sc)
	}
}

func TestMeasureConsistency(t *testing.T) {
	net := models.TinyAlex(4, 7)
	d := &fakeDiagnoser{threshold: 0.45}
	g := dataset.NewGenerator(4, 8)
	samples := g.MixedSet(50, 0.5, 0.8)
	q := Measure(d, net, samples)
	if q.UploadFraction < 0 || q.UploadFraction > 1 {
		t.Fatalf("upload fraction %v", q.UploadFraction)
	}
	if q.ErrorRecall < 0 || q.ErrorRecall > 1 || q.Precision < 0 || q.Precision > 1 {
		t.Fatalf("quality out of range: %+v", q)
	}
	if got := Measure(d, net, nil); got != (Quality{}) {
		t.Fatalf("empty set quality = %+v", got)
	}
}

// End-to-end: a trained jigsaw diagnoser must flag in-situ (shifted)
// images more often than ideal images — the signal the whole In-situ AI
// loop relies on.
func TestJigsawDiagnoserSeparatesShiftedData(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	const perms = 8
	g := dataset.NewGenerator(5, 9)
	set := jigsaw.NewPermSet(perms, 10)
	net := jigsaw.NewNet(perms, 11)
	tr := jigsaw.NewTrainer(net, set, 0.01, 12)
	// Pre-train on ideal data only: in-situ images are out-of-distribution.
	var pool []*tensor.Tensor
	for _, s := range g.IdealSet(160) {
		pool = append(pool, s.Image)
	}
	for step := 0; step < 150; step++ {
		i0 := (step * 16) % 160
		tr.Step(pool[i0 : i0+16])
	}
	d := NewJigsawDiagnoser(net, set, 4, 13)
	var idealScore, insituScore float64
	const n = 60
	for _, s := range g.IdealSet(n) {
		idealScore += d.Score(s.Image) / n
	}
	for _, s := range g.InSituSet(n, 0.9) {
		insituScore += d.Score(s.Image) / n
	}
	t.Logf("mean score ideal %.3f vs in-situ %.3f", idealScore, insituScore)
	if insituScore >= idealScore {
		t.Fatalf("diagnoser cannot separate: ideal %v vs in-situ %v", idealScore, insituScore)
	}
}

// Batched scoring forwards many images at once, so its GEMMs can take the
// blocked (FMA) path where a batch of one took the plain loops: scores
// may move in the last few ulps, never more than 1e-6, and a verdict can
// only change for a score that close to the threshold.
func TestScoresMatchPerImageScore(t *testing.T) {
	g := dataset.NewGenerator(4, 14)
	samples := g.MixedSet(40, 0.5, 0.8) // two full tiles and a ragged one
	diagnosers := map[string]BatchDiagnoser{
		"jigsaw":     NewJigsawDiagnoser(jigsaw.NewNet(8, 15), jigsaw.NewPermSet(8, 16), 3, 0),
		"confidence": NewConfidenceDiagnoser(models.TinyAlex(4, 17)),
	}
	for name, d := range diagnosers {
		scores := Scores(d, samples)
		single := make([]float64, len(samples))
		for i, s := range samples {
			single[i] = d.Score(s.Image)
			if diff := math.Abs(scores[i] - single[i]); diff > 1e-6 {
				t.Errorf("%s: sample %d batched %v vs single %v (diff %g)", name, i, scores[i], single[i], diff)
			}
		}

		sorted := append([]float64(nil), single...)
		sort.Float64s(sorted)
		d.SetThreshold((sorted[len(sorted)/2-1] + sorted[len(sorted)/2]) / 2)
		rec, unrec := Split(d, samples)
		var wantRec, wantUnrec int
		for i, s := range single {
			if math.Abs(s-d.Threshold()) <= 1e-6 {
				t.Fatalf("%s: sample %d scores within 1e-6 of the threshold; pick another seed", name, i)
			}
			if s >= d.Threshold() {
				wantRec++
			} else {
				wantUnrec++
			}
		}
		if len(rec) != wantRec || len(unrec) != wantUnrec {
			t.Errorf("%s: batched split %d/%d, per-image verdicts %d/%d", name, len(rec), len(unrec), wantRec, wantUnrec)
		}
	}
}

// A diagnoser without ScoreBatch is scored image by image, exactly.
func TestScoresFallsBackToScore(t *testing.T) {
	g := dataset.NewGenerator(4, 18)
	samples := g.MixedSet(20, 0.5, 0.8)
	d := &fakeDiagnoser{}
	for i, sc := range Scores(d, samples) {
		if want := d.Score(samples[i].Image); sc != want {
			t.Fatalf("sample %d: Scores %v, Score %v", i, sc, want)
		}
	}
}

// Assess is Measure and Split from one scoring pass.
func TestAssessMatchesMeasureAndSplit(t *testing.T) {
	net := models.TinyAlex(4, 19)
	d := &fakeDiagnoser{threshold: 0.45}
	g := dataset.NewGenerator(4, 20)
	samples := g.MixedSet(150, 0.5, 0.8) // three Predict chunks
	q, unrec := Assess(d, net, samples)
	if want := Measure(d, net, samples); q != want {
		t.Errorf("Assess quality %+v, Measure %+v", q, want)
	}
	_, want := Split(d, samples)
	if len(unrec) != len(want) {
		t.Fatalf("Assess flags %d samples, Split %d", len(unrec), len(want))
	}
	for i := range unrec {
		if unrec[i].Image != want[i].Image {
			t.Fatalf("unrecognized sample %d differs from Split's", i)
		}
	}
	if len(unrec) != int(math.Round(q.UploadFraction*150)) {
		t.Errorf("%d unrecognized but upload fraction %v", len(unrec), q.UploadFraction)
	}
}

// nanDiagnoser scores every image NaN: no score is at or above any
// threshold.
type nanDiagnoser struct{ fakeDiagnoser }

func (nanDiagnoser) Score(*tensor.Tensor) float64 { return math.NaN() }

// Assess counts and uploads a NaN score the same way: as unrecognized.
func TestAssessNaNScoresUpload(t *testing.T) {
	net := models.TinyAlex(4, 24)
	samples := dataset.NewGenerator(4, 25).MixedSet(10, 0.5, 0.8)
	q, unrec := Assess(&nanDiagnoser{}, net, samples)
	if len(unrec) != len(samples) || q.UploadFraction != 1 {
		t.Fatalf("NaN scores: %d of %d unrecognized, upload fraction %v", len(unrec), len(samples), q.UploadFraction)
	}
}

// BenchmarkScores prices the batched path against one image per call:
// compare the us/image of images=1 and images=48.
func BenchmarkScores(b *testing.B) {
	d := NewJigsawDiagnoser(jigsaw.NewNet(8, 21), jigsaw.NewPermSet(8, 22), 3, 0)
	g := dataset.NewGenerator(4, 23)
	for _, n := range []int{1, 48} {
		samples := g.MixedSet(n, 0.5, 0.8)
		b.Run(fmt.Sprintf("images=%d", n), func(b *testing.B) {
			Scores(d, samples)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Scores(d, samples)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*n), "us/image")
		})
	}
}
