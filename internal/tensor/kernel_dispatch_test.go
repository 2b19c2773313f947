package tensor

import (
	"sync"
	"testing"
)

// restoreDefaultKernel re-selects the kernel that init() picked once the
// test is done, so kernel-switching tests cannot leak state.
func restoreDefaultKernel(t *testing.T) {
	name := KernelName()
	t.Cleanup(func() {
		if err := selectKernel(name); err != nil {
			t.Fatal(err)
		}
	})
}

func TestKernelDispatchState(t *testing.T) {
	names := KernelNames()
	if len(names) == 0 {
		t.Fatal("no kernels available")
	}
	if names[0] != "generic" {
		t.Fatalf("baseline kernel = %q, want generic", names[0])
	}
	found := false
	for _, n := range names {
		if n == KernelName() {
			found = true
		}
	}
	if !found {
		t.Fatalf("selected kernel %q not in available set %v", KernelName(), names)
	}
	if tileM%mr != 0 || tileN%nr != 0 {
		t.Fatalf("macro-tile %dx%d not divisible by micro-tile %dx%d", tileM, tileN, mr, nr)
	}
	if mr*nr > maxMicroElems {
		t.Fatalf("micro-tile %dx%d exceeds edge buffer %d", mr, nr, maxMicroElems)
	}
}

func TestSelectKernelUnknownName(t *testing.T) {
	if err := selectKernel("no-such-kernel"); err == nil {
		t.Fatal("selectKernel accepted an unknown name")
	}
}

// Cross-kernel equivalence matrix: every available micro-kernel must
// produce the same MatMul results (vs the naive reference, and vs the
// baseline generic kernel to tolerance) across shapes chosen to hit the
// mr/nr remainder edges of both 4-wide and 8-wide kernels: one-off
// dimensions around micro-tile (4, 8) and macro-tile (64, 256)
// boundaries, plus skinny and k-heavy shapes.
func TestCrossKernelEquivalenceMatrix(t *testing.T) {
	defer restoreDefaultKernel(t)
	shapes := [][3]int{
		{4, 32, 8},    // exactly one micro-tile
		{5, 33, 9},    // one past every micro edge
		{3, 31, 7},    // one short of every micro edge
		{63, 80, 65},  // around tileM
		{65, 80, 129}, // past tileM, odd k
		{9, 300, 257}, // past tileN, k spills into a second kc slice... (k > 256 needs bigger matmul)
		{129, 70, 300},
		{1, 500, 3}, // skinny: small path
		{200, 17, 520},
	}
	r := NewRNG(99)
	type testCase struct {
		a, b *Tensor
	}
	cases := make([]testCase, len(shapes))
	for i, sh := range shapes {
		a := New(sh[0], sh[2])
		b := New(sh[2], sh[1])
		a.FillNormal(r, 0, 1)
		b.FillNormal(r, 0, 1)
		cases[i] = testCase{a, b}
	}
	results := map[string][]*Tensor{}
	for _, name := range KernelNames() {
		if err := selectKernel(name); err != nil {
			t.Fatal(err)
		}
		outs := make([]*Tensor, len(cases))
		for i, tc := range cases {
			outs[i] = matMul(tc.a, tc.b)
			if !closeEnough(outs[i], naiveMatMul(tc.a, tc.b), 2e-3) {
				t.Fatalf("kernel %s diverges from naive at shape %v", name, shapes[i])
			}
		}
		results[name] = outs
	}
	// Every kernel agrees with generic to tolerance (FMA rounds once per
	// multiply-add).
	for name, outs := range results {
		for i := range outs {
			if !closeEnough(outs[i], results["generic"][i], 2e-3) {
				t.Fatalf("kernel %s diverges from generic at shape %v", name, shapes[i])
			}
		}
	}
}

// Transposed-operand equivalence across kernels: the backward-pass GEMM
// forms must hold for every kernel at remainder-edge shapes too.
func TestCrossKernelTransposeEquivalence(t *testing.T) {
	defer restoreDefaultKernel(t)
	r := NewRNG(101)
	for _, name := range KernelNames() {
		if err := selectKernel(name); err != nil {
			t.Fatal(err)
		}
		for _, sh := range [][3]int{{5, 33, 65}, {65, 9, 129}, {64, 64, 64}} {
			m, n, k := sh[0], sh[1], sh[2]
			at := New(k, m) // A stored transposed
			bt := New(n, k) // B stored transposed
			at.FillNormal(r, 0, 1)
			bt.FillNormal(r, 0, 1)
			gotA := matMulTransA(at, naiveTranspose(bt)) // Aᵀ·B
			wantA := naiveMatMul(naiveTranspose(at), naiveTranspose(bt))
			if !closeEnough(gotA, wantA, 2e-3) {
				t.Fatalf("kernel %s: MatMulTransA mismatch at %v", name, sh)
			}
			gotB := MatMulTransB(naiveTranspose(at), bt) // A·Bᵀ
			wantB := naiveMatMul(naiveTranspose(at), naiveTranspose(bt))
			if !closeEnough(gotB, wantB, 2e-3) {
				t.Fatalf("kernel %s: MatMulTransB mismatch at %v", name, sh)
			}
		}
	}
}

func naiveTranspose(a *Tensor) *Tensor {
	m, n := a.Dim(0), a.Dim(1)
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return out
}

// Fleet-style concurrency hammer: many goroutines issue large GEMMs at
// once. One wins the worker pool, the rest run inline; under -race this
// proves the shared-packed-panel path never lets two goroutines touch
// the same panel buffers.
func TestConcurrentGemmHammer(t *testing.T) {
	const goroutines = 6
	r := NewRNG(77)
	a := New(150, 200)
	b := New(200, 170)
	a.FillNormal(r, 0, 1)
	b.FillNormal(r, 0, 1)
	want := naiveMatMul(a, b)
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 8; iter++ {
				got := matMul(a, b)
				if !closeEnough(got, want, 2e-3) {
					errc <- errMismatch
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// errMismatch keeps the hammer goroutines allocation-light.
var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent gemm result mismatch" }
