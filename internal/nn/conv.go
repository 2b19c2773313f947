package nn

import (
	"fmt"

	"insitu/internal/tensor"
)

// Conv2D is a 2-D convolution layer over batched [B, C, H, W] tensors,
// implemented as im2col + matrix multiplication exactly as the paper's
// Fig. 8 describes for the GPU path (Fm × Dm). Training forwards and
// input gradients are parallelized across the batch dimension, weight
// gradients are summed in sample order; inference batches images into
// one GEMM per panel (forwardEval).
type Conv2D struct {
	name string
	Geom tensor.Conv2DGeom

	W *Param // [M, N, K, K]
	B *Param // [M]

	// caches for backward: lastBat is the batch of the last training
	// forward (0 after any other), cols its per-sample column matrices
	// while W is trainable
	cols    []*tensor.Tensor
	inShape []int
	lastBat int

	// ws pools the per-chunk column scratch of a training forward that
	// keeps no cols and of backward's dcols, so steady-state passes reuse
	// the same storage. gW and gB are the one weight- and
	// bias-gradient accumulator pair, summed in sample order and reused
	// every step; dys holds a backward's per-sample views of dy.
	ws     tensor.Workspace
	gW, gB *tensor.Tensor
	dys    []*tensor.Tensor
	dx     *tensor.Tensor
}

// NewConv2D constructs a convolution layer with He-initialized weights.
func NewConv2D(name string, g tensor.Conv2DGeom, rng *tensor.RNG) *Conv2D {
	if g.OutHeight() < 1 || g.OutWidth() < 1 {
		panic(fmt.Sprintf("nn: conv %q produces empty output for geom %+v", name, g))
	}
	w := tensor.New(g.OutChannels, g.InChannels, g.KernelSize, g.KernelSize)
	w.FillHe(rng, g.InChannels*g.KernelSize*g.KernelSize)
	b := tensor.New(g.OutChannels)
	return &Conv2D{
		name: name,
		Geom: g,
		W:    NewParam(name+".W", w),
		B:    NewParam(name+".b", b),
	}
}

// Name implements Layer.
func (l *Conv2D) Name() string { return l.name }

// Params implements Layer.
func (l *Conv2D) Params() []*Param { return []*Param{l.W, l.B} }

// Forward implements Layer. x is [B, N, H, W]; the result is [B, M, R, C].
// A training forward keeps every image's column matrix for Backward
// while W is trainable (paramGrads is their only reader); an eval
// forward keeps nothing and runs forwardEval's batched panels. A frozen
// conv below the lowest trainable layer trains through forwardFrozen,
// so a frozen W reaches this method's training branch only in a frozen
// conv above a trainable one, which no CONV-i lock (ConvPrefixes) makes:
// its Backward still passes dx down, and that needs no cols.
func (l *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out, fm := l.prepare(x)
	if !train {
		l.cols = l.cols[:0]
		l.lastBat = 0
		l.forwardEval(x, out, fm)
		return out
	}
	l.inShape = x.Shape()
	l.lastBat = x.Dim(0)
	if l.W.Frozen {
		l.cols = nil
	}
	l.forwardTrain(x, out, fm, !l.W.Frozen)
	return out
}

// forwardFrozen is the training forward keeping no backward state.
func (l *Conv2D) forwardFrozen(x *tensor.Tensor) *tensor.Tensor {
	out, fm := l.prepare(x)
	l.cols, l.inShape, l.lastBat = nil, nil, 0
	l.gW, l.gB, l.dys, l.dx = nil, nil, nil, nil
	l.forwardTrain(x, out, fm, false)
	return out
}

// prepare checks x against the geometry and returns the output tensor
// and the [M, N·K²] filter matrix.
func (l *Conv2D) prepare(x *tensor.Tensor) (out, fm *tensor.Tensor) {
	g := l.Geom
	if x.Rank() != 4 || x.Dim(1) != g.InChannels || x.Dim(2) != g.InHeight || x.Dim(3) != g.InWidth {
		panic(fmt.Sprintf("nn: conv %q input shape %v does not match geom %+v", l.name, x.Shape(), g))
	}
	out = tensor.New(x.Dim(0), g.OutChannels, g.OutHeight(), g.OutWidth())
	return out, l.W.Value.Reshape(g.OutChannels, g.ColRows())
}

// forwardTrain computes out = conv(x) with one im2col and one GEMM per
// image. With keep, every image's column matrix stays in l.cols;
// otherwise each chunk of images reuses one pooled scratch matrix.
func (l *Conv2D) forwardTrain(x, out, fm *tensor.Tensor, keep bool) {
	g := l.Geom
	batch := x.Dim(0)
	if keep {
		if cap(l.cols) < batch {
			l.cols = make([]*tensor.Tensor, batch)
		}
		l.cols = l.cols[:batch]
		for b := range l.cols {
			if l.cols[b] == nil || l.cols[b].Dim(0) != g.ColRows() || l.cols[b].Dim(1) != g.ColCols() {
				l.cols[b] = tensor.New(g.ColRows(), g.ColCols())
			}
		}
	}

	outH, outW := g.OutHeight(), g.OutWidth()
	perImage := g.InChannels * g.InHeight * g.InWidth
	perOut := g.OutChannels * outH * outW
	tensor.ParallelChunks(batch, func(_, b0, b1 int) {
		var scratch *tensor.Tensor
		if !keep {
			scratch = l.ws.Get(g.ColRows(), g.ColCols())
			defer l.ws.Put(scratch)
		}
		for b := b0; b < b1; b++ {
			in := tensor.FromSlice(x.Data[b*perImage:(b+1)*perImage], g.InChannels, g.InHeight, g.InWidth)
			cols := scratch
			if keep {
				cols = l.cols[b]
			}
			tensor.Im2Col(in, g, cols)
			dst := tensor.FromSlice(out.Data[b*perOut:(b+1)*perOut], g.OutChannels, outH*outW)
			tensor.MatMulInto(dst, fm, cols)
			for m := 0; m < g.OutChannels; m++ {
				bias := l.B.Value.Data[m]
				if bias == 0 {
					continue
				}
				row := dst.Data[m*outH*outW : (m+1)*outH*outW]
				for i := range row {
					row[i] += bias
				}
			}
		}
	})
}

// Eval-mode convolution runs one GEMM per tile of images instead of one
// per image: t images are im2col'ed side by side into a
// [N·K², t·R·C] panel, Fm × panel gives [M, t·R·C], and that product is
// scattered (plus the bias) into the images' [M, R, C] outputs. A
// blocked GEMM's per-element k-order does not depend on its column
// count, so as long as the per-image problem is on the blocked path the
// result is bit-identical to per-image convolution.
const (
	// evalPanelCols caps a panel's columns: a tile holds as many images
	// as fit (always at least one).
	evalPanelCols = 512
	// evalPanelFloats is the fixed capacity of every pooled panel
	// buffer — the column panel and the product together. A tile is
	// also cut to fit it, so every layer reuses the same buffers.
	evalPanelFloats = evalPanelCols * 256
)

// evalPanels pools the panel buffers of every Conv2D in the process: a
// chunk of tiles holds one only for the length of its forward, so
// resident scratch does not grow with the number of layers or networks.
var evalPanels tensor.Workspace

// forwardEval computes out = conv(x) tile by tile; fm is the [M, N·K²]
// filter matrix. Tiles are spread over the worker pool, each chunk of
// them through its own pooled panel. Tiles share no state, so the
// result does not depend on how they are spread.
func (l *Conv2D) forwardEval(x, out, fm *tensor.Tensor) {
	g := l.Geom
	batch := x.Dim(0)
	rows, rc, m := g.ColRows(), g.ColCols(), g.OutChannels
	perImage := g.InChannels * g.InHeight * g.InWidth
	perOut := m * rc
	tile := max(1, min(batch, evalPanelCols/rc, evalPanelFloats/((rows+m)*rc)))
	tensor.ParallelChunks((batch+tile-1)/tile, func(_, t0, t1 int) {
		bufp := evalPanels.GetSlice(max(evalPanelFloats, (rows+m)*rc))
		defer evalPanels.PutSlice(bufp)
		buf := *bufp
		for b0 := t0 * tile; b0 < min(t1*tile, batch); b0 += tile {
			t := min(tile, batch-b0)
			n := t * rc
			panel := tensor.FromSlice(buf[:rows*n], rows, n)
			for i := 0; i < t; i++ {
				b := b0 + i
				tensor.Im2ColPanel(x.Data[b*perImage:(b+1)*perImage], g, panel.Data, n, i*rc)
			}
			// A one-image tile is already in output layout: multiply
			// straight into it.
			prod := tensor.FromSlice(out.Data[b0*perOut:(b0+1)*perOut], m, rc)
			if t > 1 {
				prod = tensor.FromSlice(buf[rows*n:(rows+m)*n], m, n)
			}
			tensor.MatMulInto(prod, fm, panel)
			for i := 0; i < t; i++ {
				dst := out.Data[(b0+i)*perOut : (b0+i+1)*perOut]
				for j := 0; j < m; j++ {
					row := dst[j*rc : (j+1)*rc]
					if t > 1 {
						copy(row, prod.Data[j*n+i*rc:])
					}
					if bias := l.B.Value.Data[j]; bias != 0 {
						for k := range row {
							row[k] += bias
						}
					}
				}
			}
		}
	})
}

// Backward implements Layer. dy is [B, M, R, C]; returns [B, N, H, W].
//
// The weight and bias gradients are summed into one accumulator in
// sample order, outside any parallel section; a per-sample GEMM may
// still split into tiles, but those own disjoint outputs and run its k
// slices in order. Only the per-sample input gradients, which share no
// state, are spread over the worker pool. So every gradient is
// bit-identical at any GOMAXPROCS.
func (l *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dys := l.sampleGrads(dy)
	defer clear(dys) // do not keep dy alive until the next step
	l.paramGrads(dys)
	return l.inputGrad(dys)
}

// backwardParams is Backward without the input gradient: the stop layer
// of Network.TrainStep.
func (l *Conv2D) backwardParams(dy *tensor.Tensor) {
	dys := l.sampleGrads(dy)
	defer clear(dys)
	l.paramGrads(dys)
}

// sampleGrads returns the per-sample [M, R·C] views of dy, held in l.dys
// until the caller clears them.
func (l *Conv2D) sampleGrads(dy *tensor.Tensor) []*tensor.Tensor {
	g := l.Geom
	batch := l.lastBat
	rc := g.OutHeight() * g.OutWidth()
	perOut := g.OutChannels * rc
	if batch == 0 || dy.Size() != batch*perOut {
		panic("nn: conv backward before forward(train=true) or size mismatch")
	}
	if cap(l.dys) < batch {
		l.dys = make([]*tensor.Tensor, batch)
	}
	dys := l.dys[:batch]
	for b := range dys {
		dys[b] = tensor.FromSlice(dy.Data[b*perOut:(b+1)*perOut], g.OutChannels, rc)
	}
	return dys
}

// paramGrads adds the batch's weight and bias gradients to W.Grad and
// B.Grad, unless W is frozen.
func (l *Conv2D) paramGrads(dys []*tensor.Tensor) {
	if l.W.Frozen {
		return
	}
	g := l.Geom
	rc := g.OutHeight() * g.OutWidth()
	if l.gW == nil {
		l.gW = tensor.New(g.OutChannels, g.ColRows())
		l.gB = tensor.New(g.OutChannels)
	}
	gw, gb := l.gW, l.gB
	gw.Zero()
	gb.Zero()
	for b, dyb := range dys {
		// dW += dy · colsᵀ   ([M,RC] × [RC,NK²]), accumulated
		// in place — no per-sample gradient tensor.
		tensor.MatMulTransBInto(gw, dyb, l.cols[b], true)
		for m := 0; m < g.OutChannels; m++ {
			var s float64
			for _, v := range dyb.Data[m*rc : (m+1)*rc] {
				s += float64(v)
			}
			gb.Data[m] += float32(s)
		}
	}
	l.W.Grad.Reshape(g.OutChannels, g.ColRows()).Add(gw)
	l.B.Grad.Add(gb)
}

// inputGrad computes dx = conv⁻ᵀ(dy) into the layer's reusable buffer.
func (l *Conv2D) inputGrad(dys []*tensor.Tensor) *tensor.Tensor {
	g := l.Geom
	perImage := g.InChannels * g.InHeight * g.InWidth
	// The input-gradient buffer is reused across steps; only the batch
	// dimension can change between calls (geometry is fixed per layer).
	if l.dx == nil || l.dx.Dim(0) != len(dys) {
		l.dx = tensor.New(l.inShape...)
	}
	dx := l.dx
	fm := l.W.Value.Reshape(g.OutChannels, g.ColRows())
	tensor.ParallelChunks(len(dys), func(_, b0, b1 int) {
		dcols := l.ws.Get(g.ColRows(), g.ColCols())
		defer l.ws.Put(dcols)
		for b := b0; b < b1; b++ {
			// dcols = Wᵀ · dy   ([NK²,M] × [M,RC])
			tensor.MatMulTransAInto(dcols, fm, dys[b], false)
			dxb := tensor.FromSlice(dx.Data[b*perImage:(b+1)*perImage], g.InChannels, g.InHeight, g.InWidth)
			tensor.Col2Im(dcols, g, dxb)
		}
	})
	return dx
}
