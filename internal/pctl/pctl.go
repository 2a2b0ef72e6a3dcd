// Package pctl is the repository's one percentile implementation: a
// bounded ring of recent samples, and nearest-rank percentiles over a
// sample set. The service's solve-latency window, the admission
// controller's queue-wait window and the fleet benchmarks all report
// through it, so every percentile in the system follows the same rule.
package pctl

import (
	"math"
	"sort"
)

// Ring records the most recent samples in a fixed-size ring and counts
// every sample ever added. It is not safe for concurrent use: callers hold
// their own lock.
type Ring struct {
	buf  []float64
	n    int // total samples ever added
	next int
}

// NewRing creates a ring holding the last size samples (at least 16).
func NewRing(size int) *Ring {
	if size < 16 {
		size = 16
	}
	return &Ring{buf: make([]float64, 0, size)}
}

// Add records one sample, evicting the oldest once the ring is full.
func (r *Ring) Add(v float64) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.next] = v
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.n++
}

// Total returns the number of samples ever added. It exceeds the window
// size once the ring wraps; callers must not conflate the two.
func (r *Ring) Total() int { return r.n }

// Window appends the resident samples, in no particular order, to dst.
func (r *Ring) Window(dst []float64) []float64 { return append(dst, r.buf...) }

// Percentiles returns the requested percentiles (0..100) over the window.
func (r *Ring) Percentiles(ps ...float64) []float64 { return Percentiles(r.Window(nil), ps...) }

// Percentiles sorts samples in place and returns the requested percentiles
// (0..100) by nearest rank: p's value is the smallest sample with at least
// p% of the set at or below it, the sorted 1-based rank ⌈p/100·n⌉.
// Truncating toward zero instead would bias every percentile low — with 100
// samples, p99 would land on the 99th-smallest rather than the 100th. An
// empty set yields zeros.
func Percentiles(samples []float64, ps ...float64) []float64 {
	vals := make([]float64, len(ps))
	if len(samples) == 0 {
		return vals
	}
	sort.Float64s(samples)
	for i, p := range ps {
		idx := int(math.Ceil(p/100*float64(len(samples)))) - 1
		vals[i] = samples[min(max(idx, 0), len(samples)-1)]
	}
	return vals
}
