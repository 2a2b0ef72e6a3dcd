package main

import (
	"math"
	"slices"
)

// minTail is the number of samples that must lie beyond a percentile for it
// to say anything about the tail; percentiles with fewer are not reported.
const minTail = 10

// nearestRank returns the nearest-rank p-th percentile (0 < p <= 100) of
// ascending samples: the smallest sample with at least p% of the samples at
// or below it. It is the only percentile rule in the benchmark.
func nearestRank(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest-rank index of the p-th percentile of n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n) / 100))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailOK reports whether n samples leave at least minTail samples beyond the
// p-th percentile.
func tailOK(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minTail
}

// percentile sorts a copy of xs and returns its p-th percentile; ok is false
// when the sample is empty or leaves fewer than minTail samples beyond it.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	if !tailOK(len(xs), p) {
		return 0, false
	}
	return nearestRank(slices.Sorted(slices.Values(xs)), p), true
}

// tailRank is the 1-based rank reported as the tail of n samples: p99's,
// or below 1000 samples the highest rank that still leaves minTail samples
// beyond it (the two agree at n = 1000). ok is false when n <= minTail.
// Ranks, not percentiles, so no rounding can push it past its bound.
func tailRank(n int) (r int, ok bool) {
	if n <= minTail {
		return 0, false
	}
	return min(rank(n, 99), n-minTail), true
}

// median is the nearest-rank p50; 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return nearestRank(slices.Sorted(slices.Values(xs)), 50)
}

// mean is the arithmetic mean; 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
