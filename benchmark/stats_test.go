package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	v := []float64{10, 20, 30, 40, 50}
	for q, want := range map[float64]float64{0: 10, 0.25: 20, 0.5: 30, 0.9: 46, 1: 50} {
		if got := percentile(v, q); !near(got, want) {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 {
		t.Error("median reordered its input")
	}
}

// The expected values are Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 4}, 1, 4},
	}
	for _, c := range cases {
		q1, q3, ok := quartiles(c.v)
		if !ok || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.v, q1, q3, ok, c.q1, c.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("one value has no spread")
	}
}

func TestSlope(t *testing.T) {
	if got := slope([]float64{5, 7, 9, 11}); !near(got, 2) {
		t.Errorf("slope = %v, want 2", got)
	}
	if got := slope([]float64{5}); got != 0 {
		t.Errorf("slope of one point = %v, want 0", got)
	}
}
