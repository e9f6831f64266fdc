package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{4, 1}, 2.5},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// The expected values are what Python prints for
// statistics.quantiles(xs, n=4) on the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{2, 4}, 1.5, 4.5},
		{[]float64{0.82, 0.80, 0.81, 0.83, 0.79, 0.80, 0.84, 0.81, 0.80, 0.82, 0.81}, 0.80, 0.82},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(tc.in)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// The highest percentile with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{5, 50}, {19, 50}, {20, 50}, {21, 52}, {25, 60}, {40, 75}, {41, 75}, {100, 90}, {1000, 99},
	} {
		got := tailPercentile(tc.n)
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
		if tc.n >= 20 && samplesBeyond(tc.n, got) < 10 {
			t.Errorf("p%d of %d samples has only %d beyond it", got, tc.n, samplesBeyond(tc.n, got))
		}
	}
	if got := samplesBeyond(41, 75); got != 10 {
		t.Errorf("samples beyond p75 of 41 = %d, want 10", got)
	}
}
