package tensor

import (
	"fmt"
	"testing"
)

// Kernel benchmarks for the compute layer. SetBytes is fed 2·m·n·k so the
// reported MB/s column reads directly as MFLOP/s.

func BenchmarkMatMul(b *testing.B) {
	for _, s := range []int{64, 128, 256, 512} {
		b.Run(fmt.Sprintf("%dx%dx%d", s, s, s), func(b *testing.B) {
			r := NewRNG(1)
			a := New(s, s)
			bb := New(s, s)
			a.FillNormal(r, 0, 1)
			bb.FillNormal(r, 0, 1)
			c := New(s, s)
			MatMulInto(c, a, bb) // warm the pack pools
			b.SetBytes(int64(2 * s * s * s))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(c, a, bb)
			}
		})
	}
}

func BenchmarkMatMulTransA(b *testing.B) {
	s := 256
	r := NewRNG(2)
	a := New(s, s)
	bb := New(s, s)
	a.FillNormal(r, 0, 1)
	bb.FillNormal(r, 0, 1)
	c := New(s, s)
	MatMulTransAInto(c, a, bb, false)
	b.SetBytes(int64(2 * s * s * s))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransAInto(c, a, bb, false)
	}
}

func BenchmarkMatMulTransB(b *testing.B) {
	s := 256
	r := NewRNG(3)
	a := New(s, s)
	bb := New(s, s)
	a.FillNormal(r, 0, 1)
	bb.FillNormal(r, 0, 1)
	c := New(s, s)
	matMulTransBInto(c, a, bb, false)
	b.SetBytes(int64(2 * s * s * s))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matMulTransBInto(c, a, bb, false)
	}
}

func BenchmarkMatMulWideShort(b *testing.B) {
	// FCN-shaped: small batch, wide output. Exercises the 2-D tile grid —
	// a row-only split would leave this on one worker.
	m, k, n := 8, 1024, 4096
	r := NewRNG(4)
	a := New(m, k)
	bb := New(k, n)
	a.FillNormal(r, 0, 1)
	bb.FillNormal(r, 0, 1)
	c := New(m, n)
	MatMulInto(c, a, bb)
	b.SetBytes(int64(2 * m * k * n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(c, a, bb)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	g := Conv2DGeom{InChannels: 16, InHeight: 32, InWidth: 32, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 32}
	r := NewRNG(5)
	in := New(g.InChannels, g.InHeight, g.InWidth)
	in.FillNormal(r, 0, 1)
	dst := New(g.ColRows(), g.ColCols())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2Col(in, g, dst)
	}
}

func BenchmarkCol2Im(b *testing.B) {
	g := Conv2DGeom{InChannels: 16, InHeight: 32, InWidth: 32, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 32}
	r := NewRNG(6)
	cols := New(g.ColRows(), g.ColCols())
	cols.FillNormal(r, 0, 1)
	dst := New(g.InChannels, g.InHeight, g.InWidth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Col2Im(cols, g, dst)
	}
}
