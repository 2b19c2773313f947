package tensor

import (
	"math"
	"sync"
)

// Conv2DGeom describes the geometry of a 2-D convolution: input feature
// maps of size H×W with C channels, square K×K kernels, stride S and
// symmetric zero padding P. It mirrors the paper's CONV-layer notation
// (Fig. 8): N input feature maps, M output feature maps, K×K kernels and
// R×C output size.
type Conv2DGeom struct {
	InChannels  int // N in the paper
	InHeight    int
	InWidth     int
	KernelSize  int // K
	Stride      int
	Padding     int
	OutChannels int // M
}

// OutHeight returns R, the output feature-map height.
func (g Conv2DGeom) OutHeight() int { return g.outDim(g.InHeight) }

// OutWidth returns C, the output feature-map width.
func (g Conv2DGeom) OutWidth() int { return g.outDim(g.InWidth) }

// outDim is the number of kernel placements along an input side of
// length in: 0 when the kernel is wider than the padded side, so no
// receptive field ever reaches past the padded image.
func (g Conv2DGeom) outDim(in int) int {
	span := in + 2*g.Padding - g.KernelSize
	if span < 0 {
		return 0
	}
	return span/g.Stride + 1
}

// ColRows returns N·K², the number of rows of the im2col data matrix Dm.
func (g Conv2DGeom) ColRows() int { return g.InChannels * g.KernelSize * g.KernelSize }

// ColCols returns R·C, the number of columns of Dm for a single image.
func (g Conv2DGeom) ColCols() int { return g.OutHeight() * g.OutWidth() }

// PadSize returns N·(H+2P)·(W+2P), the number of floats of one
// zero-padded input image.
func (g Conv2DGeom) PadSize() int {
	return g.InChannels * (g.InHeight + 2*g.Padding) * (g.InWidth + 2*g.Padding)
}

// The column matrix Dm of Fig. 8 is never written on the convolution
// paths. Every element of it is an element of the zero-padded input, so
// Dm is held implicitly as the padded images plus two offset tables. For
// row p = (c·K+ky)·K+kx and column j = i·R·C + oy·C + ox of a tile of
// images (image i, output site (oy, ox)),
//
//	Dm[p, j]  = Pad[RowOff[p] + ColOff[j]]
//	RowOff[p] = (c·Hp + ky)·Wp + kx
//	ColOff[j] = i·PadSize + (oy·Wp + ox)·S
//
// where Hp = H+2P and Wp = W+2P. Offsets fills both tables; Im2Col
// writes Dm out through them and is the reference the tests check the
// implicit operand against.

// ConvOperand is the column matrix Dm of a tile of t images held
// implicitly: element (p, j) is Pad[RowOff[p] + ColOff[j]]. It is the B
// operand of MatMulConvInto (Dm, the forward) and MatMulConvTransBInto
// (Dmᵀ, the weight gradient), whose packers gather B's panels from it.
type ConvOperand struct {
	Pad    []float32 // t zero-padded [N, Hp, Wp] images (PadImage), back to back
	RowOff []int32   // N·K² row offsets, one table per geometry
	ColOff []int32   // t·R·C column offsets of the tile
}

// check panics unless every element the tables address lies in Pad.
// Both tables ascend, so the last pair addresses the furthest element.
func (b ConvOperand) check() {
	if len(b.RowOff) == 0 || len(b.ColOff) == 0 ||
		int(b.RowOff[len(b.RowOff)-1])+int(b.ColOff[len(b.ColOff)-1]) >= len(b.Pad) {
		panic("tensor: ConvOperand offsets exceed its padded images")
	}
}

// Offsets returns g's row-offset table (N·K² entries) and the
// column-offset table of a tile of t images (t·R·C entries). The column
// table of a smaller tile is a prefix of it.
func (g Conv2DGeom) Offsets(t int) (row, col []int32) {
	if t < 1 || int64(t)*int64(g.PadSize()) > math.MaxInt32 {
		panic("tensor: Offsets tile size out of range")
	}
	row = make([]int32, g.ColRows())
	col = make([]int32, t*g.ColCols())
	g.fillOffsets(row, col)
	return row, col
}

// fillOffsets writes the row table and the column table of a tile of
// len(col)/(R·C) images: the one definition of Dm's mapping.
func (g Conv2DGeom) fillOffsets(row, col []int32) {
	k, s := g.KernelSize, g.Stride
	hp, wp := g.InHeight+2*g.Padding, g.InWidth+2*g.Padding
	for c := 0; c < g.InChannels; c++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				row[(c*k+ky)*k+kx] = int32((c*hp+ky)*wp + kx)
			}
		}
	}
	outH, outW, ps := g.OutHeight(), g.OutWidth(), g.PadSize()
	j := 0
	for i := 0; i < len(col)/(outH*outW); i++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				col[j] = int32(i*ps + (oy*wp+ox)*s)
				j++
			}
		}
	}
}

// PadImage writes in (one flat [N, H, W] image) into dst as the
// zero-padded [N, Hp, Wp] image a ConvOperand reads. Each call counts
// once in tensor_im2col_calls_total.
func PadImage(dst, in []float32, g Conv2DGeom) {
	h, w, p := g.InHeight, g.InWidth, g.Padding
	if len(in) != g.InChannels*h*w || len(dst) != g.PadSize() {
		panic("tensor: PadImage shape mismatch")
	}
	if s := kstats.Load(); s != nil {
		s.im2colOps.Add(1)
	}
	if p == 0 {
		copy(dst, in)
		return
	}
	wp := w + 2*p
	plane := (h + 2*p) * wp
	for c := 0; c < g.InChannels; c++ {
		d := dst[c*plane : (c+1)*plane]
		clear(d[:p*wp])
		clear(d[(h+p)*wp:])
		for y := 0; y < h; y++ {
			r := d[(y+p)*wp : (y+p+1)*wp]
			clear(r[:p])
			copy(r[p:p+w], in[(c*h+y)*w:])
			clear(r[p+w:])
		}
	}
}

// im2colScratch is Im2Col's padded image and offset tables, pooled so
// the reference costs no allocation in steady state.
type im2colScratch struct {
	pad []float32
	off []int32
}

var im2colPool = sync.Pool{New: func() any { return new(im2colScratch) }}

// Im2Col stretches the local receptive fields of input (shaped
// [C, H, W]) into the column matrix dst (shaped [N·K², R·C]), exactly the
// step ① transformation of the paper's Fig. 8, by writing out the
// one-image ConvOperand element by element. Zero padding is materialized
// as zeros. The convolution layers never call it; it is the reference
// for the implicit operand and serves code that wants Dm itself.
func Im2Col(input *Tensor, g Conv2DGeom, dst *Tensor) {
	if input.Rank() != 3 || input.shape[0] != g.InChannels || input.shape[1] != g.InHeight || input.shape[2] != g.InWidth {
		panic("tensor: Im2Col input shape mismatch")
	}
	rows, rc := g.ColRows(), g.ColCols()
	if dst.Rank() != 2 || dst.shape[0] != rows || dst.shape[1] != rc {
		panic("tensor: Im2Col dst shape mismatch")
	}
	sc := im2colPool.Get().(*im2colScratch)
	defer im2colPool.Put(sc)
	sc.pad = grow(sc.pad, g.PadSize())
	sc.off = grow(sc.off, rows+rc)
	PadImage(sc.pad, input.Data, g)
	row, col := sc.off[:rows], sc.off[rows:]
	g.fillOffsets(row, col)
	for p, ro := range row {
		d := dst.Data[p*rc : (p+1)*rc]
		src := sc.pad[ro:]
		for j, co := range col {
			d[j] = src[co]
		}
	}
}

// grow returns s resliced to length n, reallocated only when too small.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Col2Im scatters the column-matrix gradient cols (shaped [N·K², R·C])
// back into an input-shaped gradient dst ([C, H, W]), accumulating where
// receptive fields overlap. It is the adjoint of Im2Col and is used by the
// convolution backward pass.
func Col2Im(cols *Tensor, g Conv2DGeom, dst *Tensor) {
	outH, outW := g.OutHeight(), g.OutWidth()
	rows, ncols := g.ColRows(), outH*outW
	if cols.Rank() != 2 || cols.shape[0] != rows || cols.shape[1] != ncols {
		panic("tensor: Col2Im cols shape mismatch")
	}
	if dst.Rank() != 3 || dst.shape[0] != g.InChannels || dst.shape[1] != g.InHeight || dst.shape[2] != g.InWidth {
		panic("tensor: Col2Im dst shape mismatch")
	}
	dst.Zero()
	in := dst.Data
	src := cols.Data
	k := g.KernelSize
	for c := 0; c < g.InChannels; c++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				row := (c*k+ky)*k + kx
				base := row * ncols
				for oy := 0; oy < outH; oy++ {
					iy := oy*g.Stride + ky - g.Padding
					if iy < 0 || iy >= g.InHeight {
						continue
					}
					inRow := (c*g.InHeight + iy) * g.InWidth
					for ox := 0; ox < outW; ox++ {
						ix := ox*g.Stride + kx - g.Padding
						if ix < 0 || ix >= g.InWidth {
							continue
						}
						in[inRow+ix] += src[base+oy*outW+ox]
					}
				}
			}
		}
	}
}
