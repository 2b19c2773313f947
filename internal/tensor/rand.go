package tensor

import "math"

// RNG is a small, deterministic pseudo-random generator (SplitMix64) used
// for reproducible weight initialization and dataset synthesis. It is not
// cryptographically secure and is not safe for concurrent use.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// State returns the generator's current position. Together with SetState
// it lets checkpointing capture and replay the exact random stream: a
// generator restored with SetState(State()) produces the same sequence
// as the original from that point on.
func (r *RNG) State() uint64 { return r.state }

// SetState rewinds (or fast-forwards) the generator to a position
// previously obtained from State.
func (r *RNG) SetState(s uint64) { r.state = s }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Float32 returns a uniform float32 in [0, 1).
func (r *RNG) Float32() float32 { return float32(r.Float64()) }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Perm returns a pseudo-random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// FillNormal fills t with Gaussian values of the given mean and standard
// deviation.
func (t *Tensor) FillNormal(r *RNG, mean, std float32) {
	for i := range t.Data {
		t.Data[i] = mean + std*float32(r.NormFloat64())
	}
}

// FillHe applies He/Kaiming initialization for a layer with the given
// fan-in: N(0, sqrt(2/fanIn)). Standard for ReLU networks.
func (t *Tensor) FillHe(r *RNG, fanIn int) {
	std := float32(math.Sqrt(2.0 / float64(fanIn)))
	t.FillNormal(r, 0, std)
}
