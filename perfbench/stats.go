package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile.
// A percentile with fewer samples beyond it is one or two outliers, not a
// distribution, so it is withheld instead of reported.
const minBeyond = 10

// sortedCopy returns xs sorted ascending without touching the caller's slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the two middle samples for an
// even count (the same rule as Python's statistics.median). It is NaN for
// no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether it may be reported: at least minBeyond samples must rank above it.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := sortedCopy(xs)
	idx := int(math.Ceil(q*float64(len(s))-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx], len(s)-1-idx >= minBeyond
}

// minSamplesFor is the smallest sample count at which percentile(q) becomes
// reportable.
func minSamplesFor(q float64) int {
	for n := 1; ; n++ {
		idx := int(math.Ceil(q*float64(n)-1e-9)) - 1
		if n-1-idx >= minBeyond {
			return n
		}
	}
}

// quartiles returns Q1, Q2 and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so the steadiness report agrees with any external check that
// uses Python. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, 0, false
	}
	s := sortedCopy(xs)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2], true
}

// spread is the interquartile range as a share of the median: the figure a
// metric's bound is compared against.
func spread(xs []float64) (float64, bool) {
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q2 == 0 {
		return 0, false
	}
	return (q3 - q1) / math.Abs(q2), true
}
