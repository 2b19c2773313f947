// Package quant provides the 16-bit fixed-point weight quantization an
// FPGA deployment of In-situ AI would use: accelerator generations like
// DianNao and Eyeriss (the paper's stated templates for its CONV
// engines) compute in 16-bit fixed point, and the VX690T's DSP48 slices
// are natively 18×25-bit. Quantizing also halves the off-chip weight
// traffic that dominates Fig. 22's data-access time. The package
// converts float32 models to Q(m.f) format, measures the quantization
// error, and produces dequantized "as-deployed" networks whose accuracy
// can be compared against the float originals.
package quant

import (
	"fmt"
	"math"

	"insitu/internal/nn"
)

// Format is a signed fixed-point format with IntBits integer bits and
// FracBits fractional bits (plus sign); IntBits+FracBits must be 15 for
// int16 storage.
type Format struct {
	IntBits  int
	FracBits int
}

// Q7_8 is the standard 16-bit CNN-weight format (range ±128, step 1/256).
var Q7_8 = Format{IntBits: 7, FracBits: 8}

// Q3_12 trades range for precision (range ±8, step 1/4096) — fits
// weight distributions of well-regularized CNNs.
var Q3_12 = Format{IntBits: 3, FracBits: 12}

// Validate checks the format fits int16.
func (f Format) Validate() error {
	if f.IntBits < 0 || f.FracBits < 0 || f.IntBits+f.FracBits != 15 {
		return fmt.Errorf("quant: format Q%d.%d does not fit int16", f.IntBits, f.FracBits)
	}
	return nil
}

// Scale returns 2^FracBits.
func (f Format) Scale() float64 { return float64(int64(1) << f.FracBits) }

// Max returns the largest representable value.
func (f Format) Max() float64 { return float64(math.MaxInt16) / f.Scale() }

// Quantize converts v to the nearest representable fixed-point value,
// saturating at the format bounds.
func (f Format) Quantize(v float32) int16 {
	q := math.Round(float64(v) * f.Scale())
	if q > math.MaxInt16 {
		q = math.MaxInt16
	}
	if q < math.MinInt16 {
		q = math.MinInt16
	}
	return int16(q)
}

// Dequantize converts a fixed-point value back to float32.
func (f Format) Dequantize(q int16) float32 {
	return float32(float64(q) / f.Scale())
}

// RoundTrip quantizes and dequantizes — the value as the FPGA would
// compute with it.
func (f Format) RoundTrip(v float32) float32 { return f.Dequantize(f.Quantize(v)) }

// Stats summarizes quantization error over a model.
type Stats struct {
	Params     int
	Saturated  int     // values clipped at the format bounds
	MaxAbsErr  float64 // worst |v - roundtrip(v)|
	MeanAbsErr float64
}

// ApplyToNetwork quantizes every learnable parameter of net in place
// and returns the error statistics. The network afterwards
// behaves as its FPGA deployment would.
func ApplyToNetwork(net *nn.Network, f Format) (Stats, error) {
	if err := f.Validate(); err != nil {
		return Stats{}, err
	}
	var st Stats
	var errSum float64
	maxAbs := f.Max()
	for _, p := range net.Params() {
		for i, v := range p.Value.Data {
			st.Params++
			if float64(v) > maxAbs || float64(v) < -maxAbs {
				st.Saturated++
			}
			rt := f.RoundTrip(v)
			e := math.Abs(float64(v - rt))
			errSum += e
			if e > st.MaxAbsErr {
				st.MaxAbsErr = e
			}
			p.Value.Data[i] = rt
		}
	}
	if st.Params > 0 {
		st.MeanAbsErr = errSum / float64(st.Params)
	}
	return st, nil
}

// WeightBytesRatio returns the off-chip weight traffic of a fixed-point
// deployment relative to float32: 0.5 for int16.
func WeightBytesRatio() float64 { return 0.5 }
