package quant

import (
	"fmt"
	"math"

	"insitu/internal/dataset"
	"insitu/internal/nn"
	"insitu/internal/tensor"
)

// Executable int8 inference. Where quant.Format only *analyzes* 16-bit
// deployment error (round-tripping weights through fixed point and
// re-running the float network), this file actually runs the arithmetic
// an int8 edge deployment would: weights are quantized per output
// channel to signed 8-bit, activations are quantized dynamically per
// batch/sample to 7-bit unsigned, the matrix products accumulate in
// int32 via tensor.GemmInt8, and only the requantization back to float
// between layers stays in floating point (dynamic quantization, as in
// ONNX Runtime/PyTorch dynamic mode). Weight traffic drops 4× against
// float32 — double the 16-bit scheme's 2×.
//
// Scheme details:
//
//   - Weights: per-output-channel symmetric, q = round(w/s) ∈ [-127,127]
//     with s = maxAbs/127. Symmetric weights need no zero-point
//     correction on their side of the product.
//   - Activations: per-row (Dense) or per-sample (Conv) asymmetric,
//     q = clamp(round(x/s)+z, 0, 127) with s = (max-min)/127 and zero
//     point z. The 7-bit ceiling keeps the AVX2 VPMADDUBSW pair sums
//     below int16 saturation (see tensor.GemmInt8). The dequantized
//     product then needs the correction Σq·w − z·Σw, with Σw
//     precomputed per output channel at quantization time.

// int8Layer is one stage of an InferenceNetwork.
type int8Layer interface {
	forward(x *tensor.Tensor) *tensor.Tensor
}

// InferenceNetwork is an int8 deployment of a float network: Dense and
// Conv2D layers run quantized, everything else (ReLU, pooling, reshape,
// normalization) runs the original float layer in eval mode. Build one
// with Quantize; the source network is not modified and keeps training
// in float — exactly the paper's Cloud-trains/edge-deploys split.
type InferenceNetwork struct {
	Name      string
	layers    []int8Layer
	Quantized int // how many layers run int8 arithmetic
}

// Quantize builds an int8 InferenceNetwork from a float network.
func Quantize(net *nn.Network) *InferenceNetwork {
	q := &InferenceNetwork{Name: net.Name + "-int8"}
	for _, l := range net.Layers {
		switch t := l.(type) {
		case *nn.Dense:
			q.layers = append(q.layers, newInt8Dense(t))
			q.Quantized++
		case *nn.Conv2D:
			q.layers = append(q.layers, newInt8Conv2D(t))
			q.Quantized++
		default:
			q.layers = append(q.layers, floatLayer{l})
		}
	}
	return q
}

// Forward runs the int8 network on a batch.
func (q *InferenceNetwork) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range q.layers {
		x = l.forward(x)
	}
	return x
}

// Predict returns the argmax class per batch element.
func (q *InferenceNetwork) Predict(x *tensor.Tensor) []int {
	return nn.Argmax(q.Forward(x))
}

// Evaluate computes accuracy over labeled samples, mirroring
// train.Evaluate for float networks.
func (q *InferenceNetwork) Evaluate(samples []dataset.Sample) float64 {
	const chunk = 64
	correct := 0
	for i := 0; i < len(samples); i += chunk {
		j := min(i+chunk, len(samples))
		x, labels := dataset.Batch(samples[i:j])
		for k, p := range q.Predict(x) {
			if p == labels[k] {
				correct++
			}
		}
	}
	return float64(correct) / float64(len(samples))
}

// WeightBytesRatioInt8 is the int8 weight-traffic ratio vs float32.
func WeightBytesRatioInt8() float64 { return 0.25 }

// floatLayer adapts an unquantized nn.Layer (activations, pooling, …) to
// the int8 stack; it always runs in eval mode.
type floatLayer struct{ l nn.Layer }

func (f floatLayer) forward(x *tensor.Tensor) *tensor.Tensor { return f.l.Forward(x, false) }

// int8Weights is a weight matrix quantized per output channel, plus the
// bookkeeping the requantization step needs.
type int8Weights struct {
	q     []int8    // [rows][kPad]
	scale []float32 // per row
	wsum  []int32   // per row: Σ q (for the zero-point correction)
	rows  int
	k     int // logical depth
	kPad  int // padded depth, multiple of tensor.Int8KAlign
}

// quantizeWeights quantizes a [rows][k] float matrix per row (= per
// output channel) to symmetric int8, zero-padding k to kPad.
func quantizeWeights(w []float32, rows, k int) int8Weights {
	kPad := tensor.PadK(k)
	iw := int8Weights{
		q:     make([]int8, rows*kPad),
		scale: make([]float32, rows),
		wsum:  make([]int32, rows),
		rows:  rows,
		k:     k,
		kPad:  kPad,
	}
	for r := 0; r < rows; r++ {
		row := w[r*k : (r+1)*k]
		var maxAbs float32
		for _, v := range row {
			if a := float32(math.Abs(float64(v))); a > maxAbs {
				maxAbs = a
			}
		}
		s := maxAbs / 127
		if s == 0 {
			s = 1
		}
		iw.scale[r] = s
		dst := iw.q[r*kPad : (r+1)*kPad]
		var sum int32
		for p, v := range row {
			qv := int32(math.RoundToEven(float64(v / s)))
			if qv > 127 {
				qv = 127
			} else if qv < -127 {
				qv = -127
			}
			dst[p] = int8(qv)
			sum += qv
		}
		iw.wsum[r] = sum
	}
	return iw
}

// quantizeActs quantizes one float vector to asymmetric 7-bit unsigned:
// dst[p] = clamp(round(src[p]/s)+z, 0, 127), returning s and z. Padding
// beyond len(src) is zeroed; padded weight entries are zero too, so the
// pad contributes nothing to any accumulator.
func quantizeActs(dst []uint8, src []float32) (s float32, z int32) {
	lo, hi := float32(0), float32(0)
	for _, v := range src {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	s = (hi - lo) / 127
	if s == 0 {
		s = 1
	}
	z = int32(math.RoundToEven(float64(-lo / s)))
	if z < 0 {
		z = 0
	} else if z > 127 {
		z = 127
	}
	for p, v := range src {
		qv := int32(math.RoundToEven(float64(v/s))) + z
		if qv < 0 {
			qv = 0
		} else if qv > 127 {
			qv = 127
		}
		dst[p] = uint8(qv)
	}
	for p := len(src); p < len(dst); p++ {
		dst[p] = 0
	}
	return s, z
}

// int8Dense runs y = x·Wᵀ + b with int8 weights and 7-bit activations.
type int8Dense struct {
	layerName string
	in, out   int
	w         int8Weights
	bias      []float32

	aq []uint8 // [batch][kPad] quantized activations
	cq []int32 // [batch][out] raw accumulators
}

func newInt8Dense(d *nn.Dense) *int8Dense {
	return &int8Dense{
		layerName: d.Name(),
		in:        d.In,
		out:       d.Out,
		w:         quantizeWeights(d.W.Value.Data, d.Out, d.In),
		bias:      append([]float32(nil), d.B.Value.Data...),
	}
}

func (l *int8Dense) forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != l.in {
		panic(fmt.Sprintf("quant: int8 dense %q input shape %v, want [B %d]", l.layerName, x.Shape(), l.in))
	}
	batch := x.Dim(0)
	kPad := l.w.kPad
	if cap(l.aq) < batch*kPad {
		l.aq = make([]uint8, batch*kPad)
		l.cq = make([]int32, batch*l.out)
	}
	aq := l.aq[:batch*kPad]
	cq := l.cq[:batch*l.out]

	// Per-row (= per-sample) dynamic activation quantization.
	ascale := make([]float32, batch)
	azero := make([]int32, batch)
	for b := 0; b < batch; b++ {
		ascale[b], azero[b] = quantizeActs(aq[b*kPad:(b+1)*kPad], x.Data[b*l.in:(b+1)*l.in])
	}

	tensor.GemmInt8(cq, aq, l.w.q, batch, l.out, kPad)

	y := tensor.New(batch, l.out)
	for b := 0; b < batch; b++ {
		sa, z := ascale[b], azero[b]
		row := y.Data[b*l.out : (b+1)*l.out]
		acc := cq[b*l.out : (b+1)*l.out]
		for o := range row {
			row[o] = sa*l.w.scale[o]*float32(acc[o]-z*l.w.wsum[o]) + l.bias[o]
		}
	}
	return y
}

// int8Conv2D runs im2col convolution with int8 weights: the float patch
// matrix from Im2Col is quantized per sample, then one GemmInt8 per
// sample produces all output pixels.
type int8Conv2D struct {
	layerName string
	geom      tensor.Conv2DGeom
	w         int8Weights
	bias      []float32

	ws tensor.Workspace // float im2col scratch
	aq []uint8          // [N][kPad] quantized patches (N = outH·outW)
	cq []int32          // [N][M] raw accumulators
}

func newInt8Conv2D(c *nn.Conv2D) *int8Conv2D {
	g := c.Geom
	return &int8Conv2D{
		layerName: c.Name(),
		geom:      g,
		w:         quantizeWeights(c.W.Value.Data, g.OutChannels, g.ColRows()),
		bias:      append([]float32(nil), c.B.Value.Data...),
	}
}

func (l *int8Conv2D) forward(x *tensor.Tensor) *tensor.Tensor {
	g := l.geom
	if x.Rank() != 4 || x.Dim(1) != g.InChannels || x.Dim(2) != g.InHeight || x.Dim(3) != g.InWidth {
		panic(fmt.Sprintf("quant: int8 conv %q input shape %v does not match geom %+v", l.layerName, x.Shape(), g))
	}
	batch := x.Dim(0)
	outH, outW := g.OutHeight(), g.OutWidth()
	n := outH * outW   // output pixels = GemmInt8 rows
	m := g.OutChannels // output channels = GemmInt8 columns
	rc := g.ColRows()  // patch depth
	kPad := l.w.kPad
	out := tensor.New(batch, m, outH, outW)
	if cap(l.aq) < n*kPad {
		l.aq = make([]uint8, n*kPad)
		l.cq = make([]int32, n*m)
	}
	aq := l.aq[:n*kPad]
	cq := l.cq[:n*m]

	perImage := g.InChannels * g.InHeight * g.InWidth
	perOut := m * outH * outW
	cols := l.ws.Get(rc, n)
	defer l.ws.Put(cols)
	patch := make([]float32, rc)
	for b := 0; b < batch; b++ {
		in := tensor.FromSlice(x.Data[b*perImage:(b+1)*perImage], g.InChannels, g.InHeight, g.InWidth)
		tensor.Im2Col(in, g, cols)

		// One scale/zero per sample; each patch (column of cols) is
		// gathered into a contiguous row and quantized with it.
		lo, hi := float32(0), float32(0)
		for _, v := range cols.Data {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		sa := (hi - lo) / 127
		if sa == 0 {
			sa = 1
		}
		z := int32(math.RoundToEven(float64(-lo / sa)))
		if z < 0 {
			z = 0
		} else if z > 127 {
			z = 127
		}
		for j := 0; j < n; j++ {
			for p := 0; p < rc; p++ {
				patch[p] = cols.Data[p*n+j]
			}
			dst := aq[j*kPad : (j+1)*kPad]
			for p, v := range patch {
				qv := int32(math.RoundToEven(float64(v/sa))) + z
				if qv < 0 {
					qv = 0
				} else if qv > 127 {
					qv = 127
				}
				dst[p] = uint8(qv)
			}
			for p := rc; p < kPad; p++ {
				dst[p] = 0
			}
		}

		tensor.GemmInt8(cq, aq, l.w.q, n, m, kPad)

		dst := out.Data[b*perOut : (b+1)*perOut]
		for o := 0; o < m; o++ {
			so := sa * l.w.scale[o]
			corr := z * l.w.wsum[o]
			bias := l.bias[o]
			row := dst[o*n : (o+1)*n]
			for j := range row {
				row[j] = so*float32(cq[j*m+o]-corr) + bias
			}
		}
	}
	return out
}
