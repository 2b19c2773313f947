package tensor

import (
	"testing"
)

// propDims deliberately mixes degenerate, odd, exactly-one-tile and
// just-past-a-tile sizes so every packing/edge path of the blocked
// kernel is exercised.
var propDims = []int{1, 3, 7, 17, 64, 129}

// naiveMatMulTransA is the reference for C = Aᵀ×B with A stored k×m.
func naiveMatMulTransA(a, b *Tensor) *Tensor {
	k, m := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a.At(p, i)) * float64(b.At(p, j))
			}
			c.Set(float32(s), i, j)
		}
	}
	return c
}

// naiveMatMulTransB is the reference for C = A×Bᵀ with B stored n×k.
func naiveMatMulTransB(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(0)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a.At(i, p)) * float64(b.At(j, p))
			}
			c.Set(float32(s), i, j)
		}
	}
	return c
}

func TestBlockedMatMulMatchesNaiveAllShapes(t *testing.T) {
	r := NewRNG(31)
	for _, m := range propDims {
		for _, k := range propDims {
			for _, n := range propDims {
				a := New(m, k)
				b := New(k, n)
				a.FillNormal(r, 0, 1)
				b.FillNormal(r, 0, 1)
				got := matMul(a, b)
				want := naiveMatMul(a, b)
				if !closeEnough(got, want, 2e-3) {
					t.Fatalf("MatMul mismatch at m=%d k=%d n=%d", m, k, n)
				}
			}
		}
	}
}

func TestBlockedMatMulTransAMatchesNaiveAllShapes(t *testing.T) {
	r := NewRNG(32)
	for _, m := range propDims {
		for _, k := range propDims {
			for _, n := range propDims {
				a := New(k, m)
				b := New(k, n)
				a.FillNormal(r, 0, 1)
				b.FillNormal(r, 0, 1)
				got := matMulTransA(a, b)
				want := naiveMatMulTransA(a, b)
				if !closeEnough(got, want, 2e-3) {
					t.Fatalf("MatMulTransA mismatch at m=%d k=%d n=%d", m, k, n)
				}
			}
		}
	}
}

func TestBlockedMatMulTransBMatchesNaiveAllShapes(t *testing.T) {
	r := NewRNG(33)
	for _, m := range propDims {
		for _, k := range propDims {
			for _, n := range propDims {
				a := New(m, k)
				b := New(n, k)
				a.FillNormal(r, 0, 1)
				b.FillNormal(r, 0, 1)
				got := MatMulTransB(a, b)
				want := naiveMatMulTransB(a, b)
				if !closeEnough(got, want, 2e-3) {
					t.Fatalf("MatMulTransB mismatch at m=%d k=%d n=%d", m, k, n)
				}
			}
		}
	}
}

func TestMatMulIntoAccumulateVariants(t *testing.T) {
	r := NewRNG(34)
	for _, dims := range [][3]int{{1, 1, 1}, {3, 17, 7}, {17, 64, 3}, {64, 129, 64}, {129, 7, 129}} {
		m, k, n := dims[0], dims[1], dims[2]
		at := New(k, m) // for TransA
		a := New(m, k)
		b := New(k, n)
		bt := New(n, k) // for TransB
		seed := New(m, n)
		at.FillNormal(r, 0, 1)
		a.FillNormal(r, 0, 1)
		b.FillNormal(r, 0, 1)
		bt.FillNormal(r, 0, 1)
		seed.FillNormal(r, 0, 1)

		// accumulate=true adds the product onto the existing contents
		wantA := seed.Clone()
		wantA.Add(naiveMatMulTransA(at, b))
		gotA := seed.Clone()
		MatMulTransAInto(gotA, at, b, true)
		if !closeEnough(gotA, wantA, 2e-3) {
			t.Fatalf("MatMulTransAInto accumulate mismatch at m=%d k=%d n=%d", m, k, n)
		}

		wantB := seed.Clone()
		wantB.Add(naiveMatMulTransB(a, bt))
		gotB := seed.Clone()
		MatMulTransBInto(gotB, a, bt, true)
		if !closeEnough(gotB, wantB, 2e-3) {
			t.Fatalf("MatMulTransBInto accumulate mismatch at m=%d k=%d n=%d", m, k, n)
		}

		// accumulate=false must overwrite, not add
		gotA2 := seed.Clone()
		MatMulTransAInto(gotA2, at, b, false)
		if !closeEnough(gotA2, naiveMatMulTransA(at, b), 2e-3) {
			t.Fatalf("MatMulTransAInto overwrite mismatch at m=%d k=%d n=%d", m, k, n)
		}
		gotB2 := seed.Clone()
		MatMulTransBInto(gotB2, a, bt, false)
		if !closeEnough(gotB2, naiveMatMulTransB(a, bt), 2e-3) {
			t.Fatalf("MatMulTransBInto overwrite mismatch at m=%d k=%d n=%d", m, k, n)
		}
	}
}

func closeEnough(got, want *Tensor, tol float64) bool {
	if !got.SameShape(want) {
		return false
	}
	for i := range got.Data {
		d := float64(got.Data[i] - want.Data[i])
		if d < -tol || d > tol {
			return false
		}
	}
	return true
}

// A blocked GEMM whose M and N are not multiples of the micro-tile
// (M = 12 is every 12-channel conv) runs fringe tiles through
// microKernelEdge; their scratch is pooled per call, never allocated per
// tile.
func TestGemmEdgeTilesZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates on otherwise allocation-free paths")
	}
	const m, n, k = 12, 36, 64
	if m%mr == 0 && n%nr == 0 {
		t.Fatalf("%d×%d has no fringe tiles for a %d×%d micro-kernel", m, n, mr, nr)
	}
	r := NewRNG(36)
	a, b, c := New(m, k), New(k, n), New(m, n)
	a.FillNormal(r, 0, 1)
	b.FillNormal(r, 0, 1)
	MatMulInto(c, a, b) // warm pools
	if allocs := testing.AllocsPerRun(50, func() { MatMulInto(c, a, b) }); allocs != 0 {
		t.Errorf("MatMulInto %d×%d×%d allocates %.1f objects/op, want 0", m, n, k, allocs)
	}
}

// The kernels must not allocate in steady state: pack scratch comes from
// the workspace pools and the worker-pool dispatch is allocation-free.
func TestKernelsZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates on otherwise allocation-free paths")
	}
	r := NewRNG(35)
	a := New(128, 128)
	b := New(128, 128)
	c := New(128, 128)
	a.FillNormal(r, 0, 1)
	b.FillNormal(r, 0, 1)
	MatMulInto(c, a, b) // warm pools
	MatMulTransAInto(c, a, b, true)
	MatMulTransBInto(c, a, b, true)

	cases := []struct {
		name string
		f    func()
	}{
		{"MatMulInto", func() { MatMulInto(c, a, b) }},
		{"MatMulTransAInto", func() { MatMulTransAInto(c, a, b, true) }},
		{"MatMulTransBInto", func() { MatMulTransBInto(c, a, b, true) }},
	}
	g := Conv2DGeom{InChannels: 4, InHeight: 12, InWidth: 12, KernelSize: 3, Stride: 1, Padding: 1, OutChannels: 8}
	in := New(g.InChannels, g.InHeight, g.InWidth)
	in.FillNormal(r, 0, 1)
	cols := New(g.ColRows(), g.ColCols())
	img := New(g.InChannels, g.InHeight, g.InWidth)
	cases = append(cases,
		struct {
			name string
			f    func()
		}{"Im2Col", func() { Im2Col(in, g, cols) }},
		struct {
			name string
			f    func()
		}{"Col2Im", func() { Col2Im(cols, g, img) }},
	)
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(20, tc.f); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per op in steady state, want 0", tc.name, allocs)
		}
	}
}
