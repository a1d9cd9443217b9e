package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or below
// it. It is exact, with no interpolation; 0 for an empty sample.
func percentile(sorted []uint32, p float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

// sortU32 sorts latency samples in place.
func sortU32(s []uint32) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

// median returns the median of xs (the mean of the middle pair for an even
// count), without reordering xs; NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// safeDiv returns a/b, or 0 when b is 0.
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
