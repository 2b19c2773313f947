package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConv2DGeomOutputDims(t *testing.T) {
	// AlexNet conv1-like: 227x227 input, 11x11 kernel, stride 4, pad 0 → 55x55.
	g := Conv2DGeom{InChannels: 3, InHeight: 227, InWidth: 227, KernelSize: 11, Stride: 4, Padding: 0, OutChannels: 96}
	if g.OutHeight() != 55 || g.OutWidth() != 55 {
		t.Fatalf("out dims = %dx%d, want 55x55", g.OutHeight(), g.OutWidth())
	}
	// Same-padding 3x3 stride 1.
	g2 := Conv2DGeom{InChannels: 1, InHeight: 8, InWidth: 8, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 1}
	if g2.OutHeight() != 8 || g2.OutWidth() != 8 {
		t.Fatalf("same-padding out dims = %dx%d, want 8x8", g2.OutHeight(), g2.OutWidth())
	}
}

func TestIm2ColKnownSmall(t *testing.T) {
	// 1-channel 3x3 input, 2x2 kernel, stride 1, no padding → 2x2 output,
	// column matrix is 4x4.
	g := Conv2DGeom{InChannels: 1, InHeight: 3, InWidth: 3, KernelSize: 2, Stride: 1, Padding: 0, OutChannels: 1}
	in := FromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	cols := New(g.ColRows(), g.ColCols())
	Im2Col(in, g, cols)
	want := []float32{
		1, 2, 4, 5, // kernel position (0,0) over the 4 output sites
		2, 3, 5, 6, // (0,1)
		4, 5, 7, 8, // (1,0)
		5, 6, 8, 9, // (1,1)
	}
	for i, w := range want {
		if cols.Data[i] != w {
			t.Fatalf("cols[%d] = %v, want %v (full: %v)", i, cols.Data[i], w, cols.Data)
		}
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	g := Conv2DGeom{InChannels: 1, InHeight: 2, InWidth: 2, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 1}
	in := FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	cols := New(g.ColRows(), g.ColCols())
	Im2Col(in, g, cols)
	// Output is 2x2; the top-left kernel placement reads the padded corner:
	// row 0 of cols is kernel tap (0,0), which for output (0,0) sits at
	// input (-1,-1) → 0.
	if cols.At(0, 0) != 0 {
		t.Fatalf("padded corner = %v, want 0", cols.At(0, 0))
	}
	// Center tap (1,1) of the kernel for output (0,0) is input (0,0) = 1.
	centerRow := (0*3+1)*3 + 1
	if cols.At(centerRow, 0) != 1 {
		t.Fatalf("center tap = %v, want 1", cols.At(centerRow, 0))
	}
	// Conservation: each input pixel appears exactly K*K times across a
	// stride-1 same conv interior... here just check the total sum equals
	// sum(input) × (number of kernel placements covering each pixel).
	var total float64
	for _, v := range cols.Data {
		total += float64(v)
	}
	// Each of the 4 pixels is covered by 4 of the 9 taps (2x2 output, 3x3 kernel).
	if math.Abs(total-4*(1+2+3+4)) > 1e-6 {
		t.Fatalf("cols sum = %v, want 40", total)
	}
}

func TestConvViaIm2ColMatchesDirect(t *testing.T) {
	// Full convolution computed as Fm×Dm must equal a direct nested-loop
	// convolution.
	r := NewRNG(7)
	g := Conv2DGeom{InChannels: 3, InHeight: 9, InWidth: 8, KernelSize: 3, Stride: 2, Padding: 1, OutChannels: 4}
	in := New(g.InChannels, g.InHeight, g.InWidth)
	in.FillNormal(r, 0, 1)
	w := New(g.OutChannels, g.InChannels, g.KernelSize, g.KernelSize)
	w.FillNormal(r, 0, 1)

	cols := New(g.ColRows(), g.ColCols())
	Im2Col(in, g, cols)
	fm := w.Reshape(g.OutChannels, g.ColRows())
	out := MatMul(fm, cols) // M × RC

	outH, outW := g.OutHeight(), g.OutWidth()
	for m := 0; m < g.OutChannels; m++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				var s float64
				for c := 0; c < g.InChannels; c++ {
					for ky := 0; ky < g.KernelSize; ky++ {
						for kx := 0; kx < g.KernelSize; kx++ {
							iy := oy*g.Stride + ky - g.Padding
							ix := ox*g.Stride + kx - g.Padding
							if iy < 0 || iy >= g.InHeight || ix < 0 || ix >= g.InWidth {
								continue
							}
							s += float64(in.At(c, iy, ix)) * float64(w.At(m, c, ky, kx))
						}
					}
				}
				got := out.At(m, oy*outW+ox)
				if math.Abs(float64(got)-s) > 1e-3 {
					t.Fatalf("conv(%d,%d,%d): got %v want %v", m, oy, ox, got, s)
				}
			}
		}
	}
}

// Property: Col2Im is the adjoint of Im2Col — for any input x and cotangent
// y, <Im2Col(x), y> == <x, Col2Im(y)>. This is the exact algebraic law a
// correct backward pass requires.
func TestQuickCol2ImAdjoint(t *testing.T) {
	f := func(seed uint16) bool {
		r := NewRNG(uint64(seed)*2654435761 + 12345)
		g := Conv2DGeom{
			InChannels: 1 + r.Intn(3),
			InHeight:   3 + r.Intn(5),
			InWidth:    3 + r.Intn(5),
			KernelSize: 1 + r.Intn(3),
			Stride:     1 + r.Intn(2),
			Padding:    r.Intn(2),
		}
		if g.OutHeight() < 1 || g.OutWidth() < 1 {
			return true
		}
		x := New(g.InChannels, g.InHeight, g.InWidth)
		x.FillNormal(r, 0, 1)
		y := New(g.ColRows(), g.ColCols())
		y.FillNormal(r, 0, 1)

		cx := New(g.ColRows(), g.ColCols())
		Im2Col(x, g, cx)
		var lhs float64
		for i := range cx.Data {
			lhs += float64(cx.Data[i]) * float64(y.Data[i])
		}
		gx := New(g.InChannels, g.InHeight, g.InWidth)
		Col2Im(y, g, gx)
		var rhs float64
		for i := range x.Data {
			rhs += float64(x.Data[i]) * float64(gx.Data[i])
		}
		return math.Abs(lhs-rhs) < 1e-2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminismAndRanges(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("RNG not deterministic for equal seeds")
		}
	}
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		if n := r.Intn(10); n < 0 || n >= 10 {
			t.Fatalf("Intn out of range: %v", n)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(9)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm produced invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestFillHeStatistics(t *testing.T) {
	r := NewRNG(11)
	x := New(10000)
	x.FillHe(r, 50)
	mean := x.Sum() / float64(x.Size())
	if math.Abs(mean) > 0.02 {
		t.Fatalf("He init mean = %v, want ~0", mean)
	}
	var varAcc float64
	for _, v := range x.Data {
		varAcc += (float64(v) - mean) * (float64(v) - mean)
	}
	variance := varAcc / float64(x.Size())
	want := 2.0 / 50.0
	if variance < want*0.8 || variance > want*1.2 {
		t.Fatalf("He init variance = %v, want ~%v", variance, want)
	}
}

// naiveIm2Col is the element-by-element definition of the column matrix:
// cols[(c·K+ky)·K+kx, oy·C+ox] = in[c, oy·S+ky−P, ox·S+kx−P], or 0 in the
// padding.
func naiveIm2Col(in *Tensor, g Conv2DGeom) []float32 {
	outH, outW := g.OutHeight(), g.OutWidth()
	k := g.KernelSize
	out := make([]float32, g.ColRows()*outH*outW)
	for c := 0; c < g.InChannels; c++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				row := (c*k+ky)*k + kx
				for oy := 0; oy < outH; oy++ {
					for ox := 0; ox < outW; ox++ {
						iy := oy*g.Stride + ky - g.Padding
						ix := ox*g.Stride + kx - g.Padding
						if iy >= 0 && iy < g.InHeight && ix >= 0 && ix < g.InWidth {
							out[row*outH*outW+oy*outW+ox] = in.At(c, iy, ix)
						}
					}
				}
			}
		}
	}
	return out
}

// Im2Col and its panel form match the naive definition bit for bit on
// padding wider than a kernel overhang, kernels wider than the input,
// padding wider than the output (1×1 input), H ≠ W and a 2×2 input, at
// strides 1 and 2. The panel is pre-filled with a sentinel so a write
// outside the image's columns shows.
func TestIm2ColMatchesNaive(t *testing.T) {
	r := NewRNG(31)
	type shape struct{ h, w int }
	for _, sh := range []shape{{1, 1}, {2, 2}, {5, 7}, {8, 6}} {
		for _, k := range []int{3, 5} {
			for _, p := range []int{0, 1, 2} {
				for _, s := range []int{1, 2} {
					g := Conv2DGeom{InChannels: 2, InHeight: sh.h, InWidth: sh.w, KernelSize: k, Stride: s, Padding: p, OutChannels: 1}
					if g.OutHeight() < 1 || g.OutWidth() < 1 {
						continue
					}
					in := New(g.InChannels, g.InHeight, g.InWidth)
					in.FillNormal(r, 0, 1)
					want := naiveIm2Col(in, g)

					cols := New(g.ColRows(), g.ColCols())
					cols.Fill(42)
					Im2Col(in, g, cols)
					for i, w := range want {
						if cols.Data[i] != w {
							t.Fatalf("%+v: Im2Col[%d] = %v, want %v", g, i, cols.Data[i], w)
						}
					}

					// Third image of a four-image panel.
					rc := g.ColCols()
					ld, off := 4*rc, 2*rc
					panel := make([]float32, g.ColRows()*ld)
					for i := range panel {
						panel[i] = 42
					}
					Im2ColPanel(in.Data, g, panel, ld, off)
					for row := 0; row < g.ColRows(); row++ {
						for col := 0; col < ld; col++ {
							got := panel[row*ld+col]
							if col >= off && col < off+rc {
								if w := want[row*rc+col-off]; got != w {
									t.Fatalf("%+v: panel[%d,%d] = %v, want %v", g, row, col, got, w)
								}
							} else if got != 42 {
								t.Fatalf("%+v: panel[%d,%d] outside the image's columns written", g, row, col)
							}
						}
					}
				}
			}
		}
	}
}
