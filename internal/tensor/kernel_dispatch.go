package tensor

import (
	"fmt"
	"os"
	"sort"
)

// Micro-kernel dispatch. The blocked GEMM is parameterized over one
// micro-kernel shape (mr×nr) and implementation, selected once at init:
// the widest kernel the CPU supports wins (AVX2/FMA 8×8 where available,
// else the pure-Go 4×8 kernel). The
// packers and edge handling read mr/nr as variables, so every kernel
// shares the same blocking, packing and parallel machinery.
//
// The INSITU_KERNEL environment variable ("generic", "avx2")
// overrides the probe — that is what lets CI pin the baseline kernel on
// AVX2 hosts and what the cross-kernel property tests use.

// microKernelFunc multiplies one packed kb×mr A panel by one packed
// kb×nr B panel, accumulating into the mr×nr block of C at row stride
// ldc (in elements).
type microKernelFunc func(c []float32, ldc int, ap, bp []float32, kb int)

// kernelImpl is one selectable micro-kernel. dot8 is the int8 dot kernel
// that rides along with the float kernel (GemmInt8); implementations
// without a vector int8 path leave it nil and get the portable reference.
type kernelImpl struct {
	name   string
	mr, nr int
	fn     microKernelFunc
	dot8   func(a []uint8, b []int8) int32
}

// The selected kernel. Written only by useKernel (init, selectKernel);
// read by the GEMM hot path. Selection must not run concurrently with
// tensor math.
var (
	mr                          = 4
	nr                          = 8
	microKernel microKernelFunc = microKernelGo4x8
	kernelName                  = "generic"
	dotInt8                     = dotInt8Go
)

func init() {
	impls := kernelTable()
	pick := impls[len(impls)-1]
	if env := os.Getenv("INSITU_KERNEL"); env != "" {
		found := false
		for _, k := range impls {
			if k.name == env {
				pick, found = k, true
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "tensor: INSITU_KERNEL=%q not available (have %v), using %q\n",
				env, KernelNames(), pick.name)
		}
	}
	useKernel(pick)
}

func useKernel(k kernelImpl) {
	mr, nr, microKernel, kernelName = k.mr, k.nr, k.fn, k.name
	dotInt8 = k.dot8
	if dotInt8 == nil {
		dotInt8 = dotInt8Go
	}
	if tileM%k.mr != 0 || tileN%k.nr != 0 {
		panic("tensor: macro-tile dimensions must be multiples of the micro-tile")
	}
	if k.mr*k.nr > maxMicroElems {
		panic("tensor: micro-tile exceeds the edge handler's buffer")
	}
}

// KernelName reports the micro-kernel the GEMM path is currently using
// ("generic" or "avx2"). Benchmark headers record it so results
// are self-describing.
func KernelName() string { return kernelName }

// KernelNames lists the micro-kernels available on this machine, from
// baseline to widest.
func KernelNames() []string {
	impls := kernelTable()
	names := make([]string, len(impls))
	for i, k := range impls {
		names[i] = k.name
	}
	return names
}

// selectKernel forces the micro-kernel by name. It exists for the
// package's cross-kernel property tests; it must not be called
// concurrently with tensor math. Unknown or unavailable names
// return an error and leave the selection unchanged.
func selectKernel(name string) error {
	for _, k := range kernelTable() {
		if k.name == name {
			useKernel(k)
			return nil
		}
	}
	avail := KernelNames()
	sort.Strings(avail)
	return fmt.Errorf("tensor: kernel %q not available on this machine (have %v)", name, avail)
}

// microKernelGo4x8 is the portable micro-kernel: the 4×8 tile is computed
// as two 4×4 halves so the partial sums fit the register file on most
// targets. Every C element accumulates its k-products in ascending p
// order.
func microKernelGo4x8(c []float32, ldc int, ap, bp []float32, kb int) {
	if kb <= 0 {
		return
	}
	microHalf4x8(c, ldc, ap, bp, kb, 0)
	microHalf4x8(c, ldc, ap, bp, kb, 4)
}

// microHalf4x8 accumulates columns [off, off+4) of the 4×8 micro-tile.
func microHalf4x8(c []float32, ldc int, ap, bp []float32, kb, off int) {
	var (
		c00, c01, c02, c03 float32
		c10, c11, c12, c13 float32
		c20, c21, c22, c23 float32
		c30, c31, c32, c33 float32
	)
	ap = ap[: kb*4 : kb*4]
	bp = bp[off : off+(kb-1)*8+4]
	for {
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
		if len(ap) <= 4 {
			break
		}
		ap = ap[4:]
		bp = bp[8:]
	}
	r := c[off : off+4]
	r[0] += c00
	r[1] += c01
	r[2] += c02
	r[3] += c03
	r = c[ldc+off : ldc+off+4]
	r[0] += c10
	r[1] += c11
	r[2] += c12
	r[3] += c13
	r = c[2*ldc+off : 2*ldc+off+4]
	r[0] += c20
	r[1] += c21
	r[2] += c22
	r[3] += c23
	r = c[3*ldc+off : 3*ldc+off+4]
	r[0] += c30
	r[1] += c31
	r[2] += c32
	r[3] += c33
}
