package quant

import (
	"math"
	"testing"
	"testing/quick"

	"insitu/internal/dataset"
	"insitu/internal/models"
	"insitu/internal/train"
)

func TestFormatValidate(t *testing.T) {
	if Q7_8.Validate() != nil || Q3_12.Validate() != nil {
		t.Fatal("standard formats rejected")
	}
	if (Format{IntBits: 8, FracBits: 8}).Validate() == nil {
		t.Fatal("17-bit format accepted")
	}
	if (Format{IntBits: -1, FracBits: 16}).Validate() == nil {
		t.Fatal("negative int bits accepted")
	}
}

func TestQuantizeKnownValues(t *testing.T) {
	f := Q7_8
	if got := f.Quantize(1.0); got != 256 {
		t.Fatalf("Q(1.0) = %d, want 256", got)
	}
	if got := f.Quantize(-0.5); got != -128 {
		t.Fatalf("Q(-0.5) = %d, want -128", got)
	}
	if got := f.Dequantize(256); got != 1.0 {
		t.Fatalf("DQ(256) = %v", got)
	}
	// Saturation.
	if got := f.Quantize(1000); got != math.MaxInt16 {
		t.Fatalf("Q(1000) = %d, want saturation", got)
	}
	if got := f.Quantize(-1000); got != math.MinInt16 {
		t.Fatalf("Q(-1000) = %d, want saturation", got)
	}
}

// Property: round-trip error is bounded by half a quantization step for
// in-range values.
func TestQuickRoundTripErrorBound(t *testing.T) {
	for _, f := range []Format{Q7_8, Q3_12} {
		step := 1 / f.Scale()
		check := func(raw float32) bool {
			v := raw
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return true
			}
			// Fold into range.
			limit := float32(f.Max() * 0.99)
			for v > limit || v < -limit {
				v /= 2
			}
			rt := f.RoundTrip(v)
			return math.Abs(float64(v-rt)) <= step/2+1e-9
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("format %+v: %v", f, err)
		}
	}
}

func TestQuickQuantizeMonotone(t *testing.T) {
	f := Q7_8
	check := func(a, b float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return f.Quantize(a) <= f.Quantize(b)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyToNetworkStats(t *testing.T) {
	net := models.TinyAlex(4, 1)
	st, err := ApplyToNetwork(net, Q3_12)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range net.Params() {
		total += p.Value.Size()
	}
	if st.Params != total {
		t.Fatalf("quantized %d of %d params", st.Params, total)
	}
	// He-initialized weights are small: no saturation in Q3.12.
	if st.Saturated != 0 {
		t.Fatalf("%d weights saturated", st.Saturated)
	}
	if st.MaxAbsErr > 1/Q3_12.Scale() {
		t.Fatalf("max error %v above one step", st.MaxAbsErr)
	}
	// Idempotent: quantizing again changes nothing.
	st2, _ := ApplyToNetwork(net, Q3_12)
	if st2.MaxAbsErr != 0 {
		t.Fatalf("second quantization moved weights: %v", st2.MaxAbsErr)
	}
}

func TestApplyRejectsBadFormat(t *testing.T) {
	net := models.TinyAlex(3, 1)
	if _, err := ApplyToNetwork(net, Format{IntBits: 10, FracBits: 10}); err == nil {
		t.Fatal("bad format accepted")
	}
}

// The deployment claim: a trained model keeps (almost all of) its
// accuracy after 16-bit quantization.
func TestQuantizedModelKeepsAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	const classes = 4
	g := dataset.NewGenerator(classes, 5)
	net := models.TinyAlex(classes, 6)
	pool := g.IdealSet(160)
	train.Run(net, pool, train.DefaultConfig(80), 0)
	test := g.IdealSet(150)
	before := train.Evaluate(net, test)
	if before < 0.6 {
		t.Fatalf("model failed to train: %v", before)
	}
	if _, err := ApplyToNetwork(net, Q3_12); err != nil {
		t.Fatal(err)
	}
	after := train.Evaluate(net, test)
	if after < before-0.05 {
		t.Fatalf("quantization cost too much accuracy: %v -> %v", before, after)
	}
}

func TestWeightBytesRatio(t *testing.T) {
	if WeightBytesRatio() != 0.5 {
		t.Fatalf("int16 ratio = %v", WeightBytesRatio())
	}
}
