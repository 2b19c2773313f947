package nn

import (
	"fmt"

	"insitu/internal/tensor"
)

// Conv2D is a 2-D convolution layer over batched [B, C, H, W] tensors,
// computed as the paper's Fig. 8 describes for the GPU path (Fm × Dm)
// without ever writing the column matrix Dm: a tile of images is
// zero-padded, and the GEMM packs Dm's panels straight from the padded
// images through the geometry's offset tables (tensor.ConvOperand). One
// GEMM per tile serves eval, training and the frozen prefix; weight
// gradients are summed in sample order, and input gradients are
// parallelized across the batch.
type Conv2D struct {
	name string
	Geom tensor.Conv2DGeom

	W *Param // [M, N, K, K]
	B *Param // [M]

	// caches for backward: lastBat is the batch of the last training
	// forward (0 after any other), pad its zero-padded input images,
	// back to back, while W is trainable: the operand paramGrads packs
	// Dmᵀ from
	pad     []float32
	inShape []int
	lastBat int

	// rowOff and colOff are the offset tables of the geometry and of a
	// full tile (tileSize images); built on first use.
	rowOff, colOff []int32

	// ws pools backward's dcols, so steady-state passes reuse the same
	// storage. gW and gB are the one weight- and bias-gradient
	// accumulator pair, summed in sample order and reused every step;
	// dys holds a backward's per-sample views of dy.
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
// A training forward keeps the batch's padded images for Backward while
// W is trainable (paramGrads is their only reader); an eval forward
// keeps nothing. A frozen conv below the lowest trainable layer trains
// through forwardFrozen, so a frozen W reaches this method's training
// branch only in a frozen conv above a trainable one, which no CONV-i
// lock (ConvPrefixes) makes: its Backward still passes dx down, and
// that needs no padded input.
func (l *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		l.pad = l.pad[:0]
		l.lastBat = 0
		return l.forward(x, false, false)
	}
	l.inShape = x.Shape()
	l.lastBat = x.Dim(0)
	if l.W.Frozen {
		l.pad = nil
	}
	return l.forward(x, true, !l.W.Frozen)
}

// forwardFrozen is the training forward keeping no backward state.
func (l *Conv2D) forwardFrozen(x *tensor.Tensor) *tensor.Tensor {
	l.pad, l.inShape, l.lastBat = nil, nil, 0
	l.gW, l.gB, l.dys, l.dx = nil, nil, nil, nil
	return l.forward(x, true, false)
}

// A forward multiplies tiles of images in one GEMM each: the t images'
// padded inputs form the implicit [N·K², t·R·C] operand, Fm × operand
// gives [M, t·R·C], and that product is scattered (plus the bias) into
// the images' [M, R, C] outputs. A blocked GEMM's per-element k-order
// does not depend on its column count, so a tile is bit-identical to its
// images convolved one by one as long as the per-image problem is on the
// blocked path too. Where it is not (tensor.SmallGemm), training and the
// frozen prefix run one GEMM per image, so training arithmetic never
// depends on the batch; eval tiles regardless.
const (
	// tileCols caps a tile's GEMM columns: a tile holds as many images
	// as fit (always at least one).
	tileCols = 512
	// tileFloats is the fixed capacity of every pooled tile buffer: the
	// product plus, when the layer keeps none, the padded images. A tile
	// is also cut to fit it, so every layer reuses the same buffers.
	tileFloats = tileCols * 256
)

// tileBufs pools the tile buffers of every Conv2D in the process: a chunk
// of tiles holds one only for the length of its forward, so resident
// scratch does not grow with the number of layers or networks.
var tileBufs tensor.Workspace

// tileSize is the number of images one forward GEMM multiplies.
func (l *Conv2D) tileSize() int {
	g := l.Geom
	rc := g.ColCols()
	return max(1, min(tileCols/rc, tileFloats/(g.PadSize()+g.OutChannels*rc)))
}

// forward computes conv(x) tile by tile. train selects training
// arithmetic (one GEMM per image where that problem is small); with
// keep the padded batch stays in l.pad for paramGrads. Tiles are spread
// over the worker pool, each chunk of them through its own pooled
// buffer; tiles share no state, so the result does not depend on how
// they are spread.
func (l *Conv2D) forward(x *tensor.Tensor, train, keep bool) *tensor.Tensor {
	g := l.Geom
	if x.Rank() != 4 || x.Dim(1) != g.InChannels || x.Dim(2) != g.InHeight || x.Dim(3) != g.InWidth {
		panic(fmt.Sprintf("nn: conv %q input shape %v does not match geom %+v", l.name, x.Shape(), g))
	}
	batch := x.Dim(0)
	rc, m, ps := g.ColCols(), g.OutChannels, g.PadSize()
	out := tensor.New(batch, m, g.OutHeight(), g.OutWidth())
	fm := l.W.Value.Reshape(m, g.ColRows())
	full := l.tileSize()
	if l.rowOff == nil {
		l.rowOff, l.colOff = g.Offsets(full)
	}
	tile := min(batch, full)
	if train && tensor.SmallGemm(m, rc, g.ColRows()) {
		tile = 1
	}
	if keep {
		if cap(l.pad) < batch*ps {
			l.pad = make([]float32, batch*ps)
		}
		l.pad = l.pad[:batch*ps]
	}
	perImage := g.InChannels * g.InHeight * g.InWidth
	perOut := m * rc
	tensor.ParallelChunks((batch+tile-1)/tile, func(_, t0, t1 int) {
		bufp := tileBufs.GetSlice(max(tileFloats, ps+perOut))
		defer tileBufs.PutSlice(bufp)
		buf := *bufp
		for b0 := t0 * tile; b0 < min(t1*tile, batch); b0 += tile {
			t := min(tile, batch-b0)
			n := t * rc
			pad := buf[m*n : m*n+t*ps]
			if keep {
				pad = l.pad[b0*ps : (b0+t)*ps]
			}
			for i := 0; i < t; i++ {
				b := b0 + i
				tensor.PadImage(pad[i*ps:(i+1)*ps], x.Data[b*perImage:(b+1)*perImage], g)
			}
			// A one-image tile is already in output layout: multiply
			// straight into it.
			prod := tensor.FromSlice(out.Data[b0*perOut:(b0+1)*perOut], m, rc)
			if t > 1 {
				prod = tensor.FromSlice(buf[:m*n], m, n)
			}
			tensor.MatMulConvInto(prod, fm, tensor.ConvOperand{Pad: pad, RowOff: l.rowOff, ColOff: l.colOff[:n]})
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
	return out
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
	ps := g.PadSize()
	for b, dyb := range dys {
		// dW += dy · colsᵀ   ([M,RC] × [RC,NK²]), accumulated in
		// place, with colsᵀ packed from the padded input.
		cols := tensor.ConvOperand{Pad: l.pad[b*ps : (b+1)*ps], RowOff: l.rowOff, ColOff: l.colOff[:rc]}
		tensor.MatMulConvTransBInto(gw, dyb, cols, true)
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
