package dataset

import (
	"math"
	"testing"
	"testing/quick"

	"insitu/internal/models"
	"insitu/internal/nn"
	"insitu/internal/tensor"
)

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(8, 42)
	b := NewGenerator(8, 42)
	for i := 0; i < 10; i++ {
		sa, sb := a.Ideal(), b.Ideal()
		if sa.Label != sb.Label {
			t.Fatal("labels diverge for equal seeds")
		}
		for j := range sa.Image.Data {
			if sa.Image.Data[j] != sb.Image.Data[j] {
				t.Fatal("pixels diverge for equal seeds")
			}
		}
	}
}

func TestSamplesInRangeAndShaped(t *testing.T) {
	g := NewGenerator(6, 1)
	for _, s := range append(g.IdealSet(20), g.InSituSet(20, 1.0)...) {
		sh := s.Image.Shape()
		if sh[0] != models.ImgChannels || sh[1] != models.ImgSize || sh[2] != models.ImgSize {
			t.Fatalf("image shape %v", sh)
		}
		for _, v := range s.Image.Data {
			if v < 0 || v > 1 || math.IsNaN(float64(v)) {
				t.Fatalf("pixel out of range: %v", v)
			}
		}
		if s.Label < 0 || s.Label >= 6 {
			t.Fatalf("label out of range: %d", s.Label)
		}
	}
}

func TestIdealConditionTagging(t *testing.T) {
	g := NewGenerator(4, 2)
	for _, s := range g.IdealSet(10) {
		if s.Condition != Ideal {
			t.Fatalf("ideal sample tagged %v", s.Condition)
		}
	}
	seen := map[Condition]bool{}
	for _, s := range g.InSituSet(200, 0.5) {
		if s.Condition == Ideal {
			t.Fatal("in-situ sample tagged ideal")
		}
		seen[s.Condition] = true
	}
	// All four pathologies occur.
	for _, c := range []Condition{TooClose, RandomPose, PoorIllumination, Occluded} {
		if !seen[c] {
			t.Fatalf("condition %v never generated in 200 samples", c)
		}
	}
}

func TestClassesAreVisuallyDistinct(t *testing.T) {
	// Mean images of two classes must differ substantially more than two
	// draws of the same class.
	g := NewGenerator(8, 3)
	meanImage := func(label int) []float64 {
		acc := make([]float64, models.ImgChannels*models.ImgSize*models.ImgSize)
		const n = 30
		for i := 0; i < n; i++ {
			s := g.render(label, Ideal, 0)
			for j, v := range s.Image.Data {
				acc[j] += float64(v) / n
			}
		}
		return acc
	}
	dist := func(a, b []float64) float64 {
		var d float64
		for i := range a {
			d += (a[i] - b[i]) * (a[i] - b[i])
		}
		return math.Sqrt(d)
	}
	m0a := meanImage(0)
	m0b := meanImage(0)
	m1 := meanImage(1)
	if dist(m0a, m1) < 2*dist(m0a, m0b) {
		t.Fatalf("classes 0/1 not distinct: inter %v vs intra %v", dist(m0a, m1), dist(m0a, m0b))
	}
}

func TestPoorIlluminationIsDarker(t *testing.T) {
	g := NewGenerator(4, 4)
	mean := func(s Sample) float64 {
		var sum float64
		for _, v := range s.Image.Data {
			sum += float64(v)
		}
		return sum / float64(s.Image.Size())
	}
	var ideal, dark float64
	for i := 0; i < 20; i++ {
		ideal += mean(g.render(0, Ideal, 0))
		dark += mean(g.render(0, PoorIllumination, 1))
	}
	if dark >= ideal*0.75 {
		t.Fatalf("poor illumination mean %v not clearly below ideal %v", dark/20, ideal/20)
	}
}

func TestBatchPacksLabelsAndPixels(t *testing.T) {
	g := NewGenerator(5, 5)
	samples := g.IdealSet(7)
	x, labels := Batch(samples)
	if x.Dim(0) != 7 {
		t.Fatalf("batch dim %v", x.Shape())
	}
	if len(labels) != 7 {
		t.Fatalf("labels len %d", len(labels))
	}
	per := samples[0].Image.Size()
	for i, s := range samples {
		if labels[i] != s.Label {
			t.Fatal("label order broken")
		}
		for j := 0; j < per; j += 97 {
			if x.Data[i*per+j] != s.Image.Data[j] {
				t.Fatal("pixel packing broken")
			}
		}
	}
}

func TestMixedSetFraction(t *testing.T) {
	g := NewGenerator(4, 6)
	set := g.MixedSet(400, 0.3, 0.5)
	insitu := 0
	for _, s := range set {
		if s.Condition != Ideal {
			insitu++
		}
	}
	if insitu < 80 || insitu > 160 {
		t.Fatalf("in-situ count %d of 400, want ~120", insitu)
	}
}

// The headline dataset property behind the paper's Table I: a classifier
// trained on ideal data must lose substantial accuracy on in-situ data.
func TestInSituShiftHurtsIdealModel(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	const classes = 6
	g := NewGenerator(classes, 7)
	net := models.TinyAlex(classes, 8)
	opt := nn.NewSGD(0.01, 0.9, 1e-4)
	trainSet := g.IdealSet(256)
	for step := 0; step < 120; step++ {
		i0 := (step * 32) % 256
		x, labels := Batch(trainSet[i0 : i0+32])
		net.TrainStep(x, labels)
		opt.Step(net.Params())
	}
	xi, li := Batch(g.IdealSet(200))
	idealAcc := net.Evaluate(xi, li)
	xs, ls := Batch(g.InSituSet(200, 0.8))
	insituAcc := net.Evaluate(xs, ls)
	if idealAcc < 0.5 {
		t.Fatalf("model failed to learn ideal data: acc %v", idealAcc)
	}
	if insituAcc > idealAcc-0.1 {
		t.Fatalf("no condition shift: ideal %v vs in-situ %v", idealAcc, insituAcc)
	}
}

// Property: any label/condition/severity combination renders a valid
// image (no NaNs, in range), i.e. the renderer has no partial domain.
func TestQuickRenderTotality(t *testing.T) {
	g := NewGenerator(10, 9)
	f := func(label uint8, cond uint8, sev float64) bool {
		l := int(label) % 10
		c := Condition(int(cond) % 5)
		s := math.Abs(sev)
		s -= math.Floor(s)
		smp := g.render(l, c, s)
		for _, v := range smp.Image.Data {
			if v < 0 || v > 1 || math.IsNaN(float64(v)) {
				return false
			}
		}
		return smp.Label == l && smp.Condition == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConditionString(t *testing.T) {
	if Ideal.String() != "ideal" || TooClose.String() != "too-close" {
		t.Fatal("Condition String broken")
	}
	if Condition(99).String() == "" {
		t.Fatal("unknown condition should still format")
	}
}

func TestImageBytesConstant(t *testing.T) {
	want := int64(models.ImgChannels * models.ImgSize * models.ImgSize * 4)
	if ImageBytes != want {
		t.Fatalf("ImageBytes = %d, want %d", ImageBytes, want)
	}
}

var _ = tensor.New // keep import if future tests drop direct use
