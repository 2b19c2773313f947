// AVX2/FMA micro-kernel for the blocked GEMM: C[8×8] += Aᵖᵃⁿᵉˡ · Bᵖᵃⁿᵉˡ.
//
// The A panel is kb×8 (ap[p*8+i]) and the B panel kb×8 (bp[p*8+j]). The
// eight YMM accumulators Y0–Y7 hold one 8-wide C row each; every k step
// loads the B row once (VMOVUPS) and issues one VBROADCASTSS + one
// VFMADD231PS per A row. FMA contracts the multiply-add to a single
// rounding, so results differ from the generic kernel in the last
// ulp — all kernels are verified against the naive reference to
// tolerance instead of bit equality.
//
// Gated behind the CPUID probe in cpu_amd64.go (AVX2 + FMA + OS YMM
// state support).

#include "textflag.h"

// func microKernelAVX2(c *float32, ldc int, ap, bp *float32, kb int)
TEXT ·microKernelAVX2(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), DX
	MOVQ ap+16(FP), SI
	MOVQ bp+24(FP), BX
	MOVQ kb+32(FP), CX
	SHLQ $2, DX          // ldc in bytes

	VXORPS Y0, Y0, Y0    // row 0 accumulator
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7    // row 7 accumulator

loop:
	VMOVUPS (BX), Y8     // b[0:8]

	VBROADCASTSS (SI), Y9
	VFMADD231PS  Y8, Y9, Y0
	VBROADCASTSS 4(SI), Y9
	VFMADD231PS  Y8, Y9, Y1
	VBROADCASTSS 8(SI), Y9
	VFMADD231PS  Y8, Y9, Y2
	VBROADCASTSS 12(SI), Y9
	VFMADD231PS  Y8, Y9, Y3
	VBROADCASTSS 16(SI), Y9
	VFMADD231PS  Y8, Y9, Y4
	VBROADCASTSS 20(SI), Y9
	VFMADD231PS  Y8, Y9, Y5
	VBROADCASTSS 24(SI), Y9
	VFMADD231PS  Y8, Y9, Y6
	VBROADCASTSS 28(SI), Y9
	VFMADD231PS  Y8, Y9, Y7

	ADDQ $32, SI
	ADDQ $32, BX
	DECQ CX
	JNZ  loop

	// C += accumulators, row by row.
	VMOVUPS (DI), Y8
	VADDPS  Y8, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    DX, DI

	VMOVUPS (DI), Y8
	VADDPS  Y8, Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    DX, DI

	VMOVUPS (DI), Y8
	VADDPS  Y8, Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ    DX, DI

	VMOVUPS (DI), Y8
	VADDPS  Y8, Y3, Y3
	VMOVUPS Y3, (DI)
	ADDQ    DX, DI

	VMOVUPS (DI), Y8
	VADDPS  Y8, Y4, Y4
	VMOVUPS Y4, (DI)
	ADDQ    DX, DI

	VMOVUPS (DI), Y8
	VADDPS  Y8, Y5, Y5
	VMOVUPS Y5, (DI)
	ADDQ    DX, DI

	VMOVUPS (DI), Y8
	VADDPS  Y8, Y6, Y6
	VMOVUPS Y6, (DI)
	ADDQ    DX, DI

	VMOVUPS (DI), Y8
	VADDPS  Y8, Y7, Y7
	VMOVUPS Y7, (DI)

	VZEROUPPER
	RET
