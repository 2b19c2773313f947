package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

// naiveMatMul is the reference O(mnk) implementation used to validate the
// optimized kernels.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a.At(i, p)) * float64(b.At(p, j))
			}
			c.Set(float32(s), i, j)
		}
	}
	return c
}

// matMul returns A × B in a fresh tensor.
func matMul(a, b *Tensor) *Tensor {
	c := New(a.Dim(0), b.Dim(1))
	MatMulInto(c, a, b)
	return c
}

// matMulTransA returns Aᵀ × B in a fresh tensor.
func matMulTransA(a, b *Tensor) *Tensor {
	c := New(a.Dim(1), b.Dim(1))
	MatMulTransAInto(c, a, b, false)
	return c
}

func tensorsClose(t *testing.T, got, want *Tensor, tol float64) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("shape mismatch: got %v want %v", got.Shape(), want.Shape())
	}
	for i := range got.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > tol {
			t.Fatalf("element %d: got %v want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulSmallKnown(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := matMul(a, b)
	want := FromSlice([]float32{58, 64, 139, 154}, 2, 2)
	tensorsClose(t, c, want, 1e-6)
}

func TestMatMulIdentity(t *testing.T) {
	r := NewRNG(1)
	a := New(5, 5)
	a.FillNormal(r, 0, 1)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(1, i, i)
	}
	tensorsClose(t, matMul(a, id), a, 1e-6)
	tensorsClose(t, matMul(id, a), a, 1e-6)
}

func TestMatMulMatchesNaiveRandom(t *testing.T) {
	r := NewRNG(2)
	for _, dims := range [][3]int{{1, 1, 1}, {3, 7, 5}, {16, 16, 16}, {33, 9, 21}, {64, 40, 70}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := New(m, k)
		b := New(k, n)
		a.FillNormal(r, 0, 1)
		b.FillNormal(r, 0, 1)
		tensorsClose(t, matMul(a, b), naiveMatMul(a, b), 1e-3)
	}
}

func TestMatMulIntoMatchesMatMul(t *testing.T) {
	r := NewRNG(3)
	a := New(8, 12)
	b := New(12, 6)
	a.FillNormal(r, 0, 1)
	b.FillNormal(r, 0, 1)
	c := New(8, 6)
	c.Fill(42) // must be overwritten, not accumulated
	MatMulInto(c, a, b)
	tensorsClose(t, c, naiveMatMul(a, b), 1e-4)
}

func TestMatMulTransA(t *testing.T) {
	r := NewRNG(4)
	// A is k×m; matMulTransA(A,B) must equal naive(Aᵀ, B).
	a := New(10, 7)
	b := New(10, 5)
	a.FillNormal(r, 0, 1)
	b.FillNormal(r, 0, 1)
	at := New(7, 10)
	for i := 0; i < 10; i++ {
		for j := 0; j < 7; j++ {
			at.Set(a.At(i, j), j, i)
		}
	}
	tensorsClose(t, matMulTransA(a, b), naiveMatMul(at, b), 1e-4)
}

func TestMatMulTransB(t *testing.T) {
	r := NewRNG(5)
	// B is n×k; MatMulTransB(A,B) must equal naive(A, Bᵀ).
	a := New(6, 9)
	b := New(4, 9)
	a.FillNormal(r, 0, 1)
	b.FillNormal(r, 0, 1)
	bt := New(9, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 9; j++ {
			bt.Set(b.At(i, j), j, i)
		}
	}
	tensorsClose(t, MatMulTransB(a, b), naiveMatMul(a, bt), 1e-4)
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched MatMul did not panic")
		}
	}()
	matMul(New(2, 3), New(4, 2))
}

// Property: (A·B)·v == A·(B·v) for random small matrices — associativity
// through the kernel within float tolerance.
func TestQuickMatMulAssociativity(t *testing.T) {
	r := NewRNG(6)
	f := func(seed uint16) bool {
		rr := NewRNG(uint64(seed) + r.Uint64()%97)
		m, k, n := 2+rr.Intn(6), 2+rr.Intn(6), 2+rr.Intn(6)
		a := New(m, k)
		b := New(k, n)
		v := New(n, 1)
		a.FillNormal(rr, 0, 1)
		b.FillNormal(rr, 0, 1)
		v.FillNormal(rr, 0, 1)
		left := matMul(matMul(a, b), v)
		right := matMul(a, matMul(b, v))
		for i := range left.Data {
			if math.Abs(float64(left.Data[i]-right.Data[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
