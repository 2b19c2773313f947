package tensor

// The MatMul* functions are thin shape-checking wrappers over the blocked
// GEMM kernel in kernel.go. The *Into variants exist so hot paths (layer
// backward passes, step loops) can write into reusable buffers — with
// accumulate they fuse the historical "allocate a gradient tensor, then
// Add it" pattern into a single allocation-free call.

// MatMulInto computes C = A × B into an existing tensor C, avoiding the
// allocation. C must be m×n.
func MatMulInto(c, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	if b.shape[0] != k || c.shape[0] != m || c.shape[1] != n {
		panic("tensor: MatMulInto shape mismatch")
	}
	gemm(c.Data, a.Data, b.Data, false, false, m, n, k, false)
}

// MatMulTransAInto computes C = Aᵀ × B into an existing m×n tensor C,
// where A is k×m and B is k×n. With accumulate it computes C += Aᵀ × B
// instead, which is the allocation-free form of the backward-pass
// gradient update Grad += xᵀ·dy.
func MatMulTransAInto(c, a, b *Tensor, accumulate bool) {
	k, m := a.shape[0], a.shape[1]
	n := b.shape[1]
	if b.shape[0] != k || c.shape[0] != m || c.shape[1] != n {
		panic("tensor: MatMulTransAInto shape mismatch")
	}
	gemm(c.Data, a.Data, b.Data, true, false, m, n, k, accumulate)
}

// MatMulTransB computes C = A × Bᵀ where A is m×k and B is n×k, yielding
// an m×n tensor. Used for input gradients (dy·Wᵀ).
func MatMulTransB(a, b *Tensor) *Tensor {
	m, k := a.shape[0], a.shape[1]
	if b.shape[1] != k {
		panic("tensor: MatMulTransB inner dimension mismatch")
	}
	n := b.shape[0]
	c := New(m, n)
	gemm(c.Data, a.Data, b.Data, false, true, m, n, k, false)
	return c
}

// MatMulTransBInto computes C = A × Bᵀ into an existing m×n tensor C,
// where A is m×k and B is n×k. With accumulate it computes C += A × Bᵀ,
// the allocation-free form of the convolution weight-gradient update
// dW += dy·colsᵀ.
func MatMulTransBInto(c, a, b *Tensor, accumulate bool) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[0]
	if b.shape[1] != k || c.shape[0] != m || c.shape[1] != n {
		panic("tensor: MatMulTransBInto shape mismatch")
	}
	gemm(c.Data, a.Data, b.Data, false, true, m, n, k, accumulate)
}
