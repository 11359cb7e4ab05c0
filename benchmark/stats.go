package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for an empty slice.
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

// quartiles returns the first quartile, median and third quartile of xs by
// the same rule as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads computed here match the ones the
// benchmark's acceptance rule computes. It needs at least two values; with
// fewer it returns NaNs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) < 2 {
		return math.NaN(), median(xs), math.NaN()
	}
	s := sortedCopy(xs)
	ld := len(s)
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// relSpread is the distance between the first and third quartile as a share
// of the median.
func relSpread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// minBeyond is how many samples must lie above a reported percentile: with
// fewer, the "percentile" is a handful of outliers rather than a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether it may be reported: only when at least minBeyond samples lie
// beyond it, so p90 needs 100 samples and p99 needs 1000.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if n-rank < minBeyond {
		return math.NaN(), false
	}
	return sortedCopy(xs)[rank-1], true
}
