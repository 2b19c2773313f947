package tensor

import (
	"testing"
)

// refGemmInt8 is the plain-loop reference: exact integer arithmetic, so
// every kernel must match it bit for bit.
func refGemmInt8(c []int32, a []uint8, b []int8, m, n, kPad int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s int32
			for p := 0; p < kPad; p++ {
				s += int32(a[i*kPad+p]) * int32(b[j*kPad+p])
			}
			c[i*n+j] = s
		}
	}
}

func randInt8Operands(r *RNG, m, n, kPad int) ([]uint8, []int8) {
	a := make([]uint8, m*kPad)
	b := make([]int8, n*kPad)
	for i := range a {
		a[i] = uint8(r.Uint64() % 128) // the quantizer's 7-bit range
	}
	for i := range b {
		b[i] = int8(int64(r.Uint64()%255) - 127)
	}
	return a, b
}

// Every available kernel's int8 dot path must agree exactly with the
// integer reference — including extreme values that would saturate the
// AVX2 int16 pair sums if activations exceeded 7 bits.
func TestGemmInt8MatchesReferenceAllKernels(t *testing.T) {
	defer restoreDefaultKernel(t)
	shapes := [][3]int{
		{1, 1, 32}, {3, 5, 32}, {7, 9, 64}, {16, 24, 224}, {64, 10, 96},
	}
	for _, name := range KernelNames() {
		if err := selectKernel(name); err != nil {
			t.Fatal(err)
		}
		r := NewRNG(7)
		for _, sh := range shapes {
			m, n, kPad := sh[0], sh[1], sh[2]
			a, b := randInt8Operands(r, m, n, kPad)
			got := make([]int32, m*n)
			want := make([]int32, m*n)
			GemmInt8(got, a, b, m, n, kPad)
			refGemmInt8(want, a, b, m, n, kPad)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("kernel %s m=%d n=%d kPad=%d: c[%d] = %d, want %d",
						name, m, n, kPad, i, got[i], want[i])
				}
			}
		}
	}
}

// The worst case the quantizers can produce: a = 127 everywhere,
// b = ±127. Pair sums reach exactly ±32258, just inside int16 — the AVX2
// kernel must not saturate.
func TestGemmInt8ExtremesNoSaturation(t *testing.T) {
	defer restoreDefaultKernel(t)
	const kPad = 64
	a := make([]uint8, kPad)
	b := make([]int8, 2*kPad)
	for i := range a {
		a[i] = 127
	}
	for i := 0; i < kPad; i++ {
		b[i] = 127
		b[kPad+i] = -127
	}
	want := []int32{127 * 127 * kPad, -127 * 127 * kPad}
	for _, name := range KernelNames() {
		if err := selectKernel(name); err != nil {
			t.Fatal(err)
		}
		got := make([]int32, 2)
		GemmInt8(got, a, b, 1, 2, kPad)
		if got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("kernel %s: got %v, want %v", name, got, want)
		}
	}
}

func TestPadK(t *testing.T) {
	cases := map[int]int{1: 32, 32: 32, 33: 64, 216: 224, 224: 224}
	for k, want := range cases {
		if got := PadK(k); got != want {
			t.Errorf("PadK(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestGemmInt8RejectsUnalignedK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GemmInt8 accepted kPad=31")
		}
	}()
	GemmInt8(make([]int32, 1), make([]uint8, 31), make([]int8, 31), 1, 1, 31)
}
