//go:build !amd64

package tensor

// kernelTable returns the micro-kernels usable on this machine, ordered
// baseline-first. Off amd64 only the pure-Go 4×8 kernel exists — the
// same kernel amd64 falls back to without AVX2, so results are
// bit-for-bit identical across architectures.
func kernelTable() []kernelImpl {
	return []kernelImpl{{name: "generic", mr: 4, nr: 8, fn: microKernelGo4x8}}
}
