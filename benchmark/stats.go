package main

import (
	"math"
	"slices"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so a spread computed here matches one computed by a driver
// written in Python.  With fewer than two values both quartiles are the
// value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	s := sorted(xs)
	if len(s) == 1 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s)
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance of xs as a share of its median: the
// run-to-run noise measure every bound is judged against.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// tailPercentile returns the highest whole percentile of n samples that
// still has at least ten samples beyond it — the percentile the metrics
// guide allows a tail latency to be reported at — or 50 when n is too
// small for any percentile above the median to qualify.
func tailPercentile(n int) int {
	if n < 20 {
		return 50
	}
	return max(50, (n-10)*100/n)
}

// samplesBeyond returns how many of n samples lie strictly beyond the
// pth percentile rank.
func samplesBeyond(n, p int) int {
	return n - int(math.Ceil(float64(n)*float64(p)/100))
}
