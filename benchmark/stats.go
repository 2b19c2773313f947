package main

import (
	"math"
	"sort"
)

// mean returns the arithmetic mean of v, NaN for an empty slice.
func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// median returns the middle of v (mean of the two middles for an even
// count), NaN for an empty slice. v is not modified.
func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile returns the q-quantile (q in [0,1]) of v by linear
// interpolation between order statistics, NaN for an empty slice.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is the
// spread rule the benchmark's acceptance uses. ok is false below two
// values, where no spread can be estimated.
func quartiles(v []float64) (q1, q3 float64, ok bool) {
	n := len(v)
	if n < 2 {
		return 0, 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 {
		// Position i·(n+1)/4 in 1-based order statistics; j is clamped
		// to the data and delta taken from the clamped j, so the ends
		// extrapolate like the Python implementation.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3), true
}

// slope returns the least-squares slope of y over x = 0,1,2,…; 0 below
// two points.
func slope(y []float64) float64 {
	n := float64(len(y))
	if n < 2 {
		return 0
	}
	var sx, sy, sxy, sxx float64
	for i, v := range y {
		x := float64(i)
		sx += x
		sy += v
		sxy += x * v
		sxx += x * x
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}
