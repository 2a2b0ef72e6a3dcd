package pctl

import (
	"math"
	"testing"
)

// nearestRank is the reference definition: the smallest sample with at
// least p% of the window at or below it (sorted 1-based index ⌈p/100·n⌉).
func nearestRank(sorted []float64, p float64) float64 {
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// The ring's percentiles must follow nearest-rank indexing at every window
// size. The old truncating index int(p/100·(n-1)) biased p50/p90/p99 low —
// e.g. with n=2 it reported p50 as the minimum, and with n=100 it reported
// p99 as the 99th-smallest sample instead of the 100th.
func TestRingPercentilesNearestRank(t *testing.T) {
	for _, size := range []int{1, 2, 3, 10, 100, 128} {
		ring := NewRing(size)
		// Distinct, descending values so any off-by-one index is visible.
		sorted := make([]float64, size)
		for i := 0; i < size; i++ {
			ring.Add(float64(size - i)) // size, size-1, ..., 1
			sorted[i] = float64(i + 1)
		}
		// The ring capacity is at least 16, so nothing has wrapped and the
		// window holds exactly the `size` values added.
		if total := ring.Total(); total != size {
			t.Fatalf("size %d: total = %d, want %d", size, total, size)
		}
		if window := len(ring.Window(nil)); window != len(sorted) {
			t.Fatalf("size %d: window = %d, want %d", size, window, len(sorted))
		}
		vals := ring.Percentiles(50, 90, 99, 0, 100)
		for i, p := range []float64{50, 90, 99, 0, 100} {
			if want := nearestRank(sorted, p); vals[i] != want {
				t.Fatalf("size %d p%g = %g, want %g", size, p, vals[i], want)
			}
		}
	}
}
