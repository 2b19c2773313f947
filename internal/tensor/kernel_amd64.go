//go:build amd64

package tensor

// microKernelAVX2 is implemented in kernel_avx2_amd64.s: the 8×8 product
// of one packed A panel (kb×8) and one packed B panel (kb×8) accumulated
// into C with FMA on YMM registers; ldc is in elements. Callers must have verified AVX2+FMA
// support (cpuHasAVX2FMA).
//
//go:noescape
func microKernelAVX2(c *float32, ldc int, ap, bp *float32, kb int)

// dotInt8AVX2 is implemented in kernel_int8_avx2_amd64.s: the int32 dot
// product of one uint8 row (values ≤ 127) and one int8 row over kPad
// bytes, kPad a multiple of 32. Callers must have verified AVX2 support.
//
//go:noescape
func dotInt8AVX2(a *uint8, b *int8, kPad int) int32

// kernelTable returns the micro-kernels usable on this machine, ordered
// baseline-first: the widest (last) entry is selected by default.
func kernelTable() []kernelImpl {
	impls := []kernelImpl{{name: "generic", mr: 4, nr: 8, fn: microKernelGo4x8}}
	if cpuHasAVX2FMA {
		impls = append(impls, kernelImpl{
			name: "avx2", mr: 8, nr: 8,
			fn:   microKernelAVX2x8x8,
			dot8: dotInt8AVX2Row,
		})
	}
	return impls
}

// dotInt8AVX2Row adapts the asm int8 dot kernel to the dispatch
// signature.
func dotInt8AVX2Row(a []uint8, b []int8) int32 {
	if len(a) == 0 {
		return 0
	}
	_ = b[len(a)-1]
	return dotInt8AVX2(&a[0], &b[0], len(a))
}

// microKernelAVX2x8x8 dispatches one 8×8 micro-tile to the AVX2/FMA
// kernel. The bounds hints let the asm run without further checks.
func microKernelAVX2x8x8(c []float32, ldc int, ap, bp []float32, kb int) {
	if kb <= 0 {
		return
	}
	_ = ap[kb*8-1]
	_ = bp[kb*8-1]
	_ = c[7*ldc+7]
	microKernelAVX2(&c[0], ldc, &ap[0], &bp[0], kb)
}
