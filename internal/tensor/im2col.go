package tensor

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
func (g Conv2DGeom) OutHeight() int {
	return (g.InHeight+2*g.Padding-g.KernelSize)/g.Stride + 1
}

// OutWidth returns C, the output feature-map width.
func (g Conv2DGeom) OutWidth() int {
	return (g.InWidth+2*g.Padding-g.KernelSize)/g.Stride + 1
}

// ColRows returns N·K², the number of rows of the im2col data matrix Dm.
func (g Conv2DGeom) ColRows() int { return g.InChannels * g.KernelSize * g.KernelSize }

// ColCols returns R·C, the number of columns of Dm for a single image.
func (g Conv2DGeom) ColCols() int { return g.OutHeight() * g.OutWidth() }

// Im2Col stretches the local receptive fields of input (shaped
// [C, H, W]) into the column matrix dst (shaped [N·K², R·C]), exactly the
// step ① transformation of the paper's Fig. 8. Zero padding is
// materialized as zeros. It is Im2ColPanel's single-image case.
func Im2Col(input *Tensor, g Conv2DGeom, dst *Tensor) {
	if input.Rank() != 3 || input.shape[0] != g.InChannels || input.shape[1] != g.InHeight || input.shape[2] != g.InWidth {
		panic("tensor: Im2Col input shape mismatch")
	}
	if dst.Rank() != 2 || dst.shape[0] != g.ColRows() || dst.shape[1] != g.ColCols() {
		panic("tensor: Im2Col dst shape mismatch")
	}
	Im2ColPanel(input.Data, g, dst.Data, g.ColCols(), 0)
}

// Im2ColPanel writes the column matrix of one image in (a flat
// [C, H, W] slice) into columns [off, off+R·C) of the row-major panel
// dst, whose rows are ld wide: row r of the image's column matrix lands
// at dst[r·ld+off:]. Placing t images side by side at off = i·R·C builds
// the [N·K², t·R·C] panel one GEMM multiplies; Im2Col is the ld = R·C,
// off = 0 case. Every element of the image's columns is written.
func Im2ColPanel(in []float32, g Conv2DGeom, dst []float32, ld, off int) {
	outH, outW := g.OutHeight(), g.OutWidth()
	if len(in) != g.InChannels*g.InHeight*g.InWidth || off < 0 || off+outH*outW > ld || len(dst) < (g.ColRows()-1)*ld+off+outH*outW {
		panic("tensor: Im2ColPanel shape mismatch")
	}
	if s := kstats.Load(); s != nil {
		s.im2colOps.Add(1)
	}
	k := g.KernelSize
	for c := 0; c < g.InChannels; c++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				row := (c*k+ky)*k + kx
				base := row*ld + off
				for oy := 0; oy < outH; oy++ {
					dr := dst[base+oy*outW : base+(oy+1)*outW]
					iy := oy*g.Stride + ky - g.Padding
					if iy < 0 || iy >= g.InHeight {
						clear(dr)
						continue
					}
					inRow := (c*g.InHeight + iy) * g.InWidth
					for ox := range dr {
						ix := ox*g.Stride + kx - g.Padding
						if ix < 0 || ix >= g.InWidth {
							dr[ox] = 0
						} else {
							dr[ox] = in[inRow+ix]
						}
					}
				}
			}
		}
	}
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
