package service

import "testing"

// Two hand-checked anchors, independent of the reference helper.
func TestLatencyRingPercentilesKnownValues(t *testing.T) {
	ring := newLatencyRing(16)
	ring.add(10)
	ring.add(20)
	vals, _, _ := ring.percentiles(50, 99)
	if vals[0] != 10 {
		t.Fatalf("p50 of {10,20} = %g, want 10 (⌈0.5·2⌉ = rank 1)", vals[0])
	}
	if vals[1] != 20 {
		t.Fatalf("p99 of {10,20} = %g, want 20 (⌈0.99·2⌉ = rank 2)", vals[1])
	}

	ring = newLatencyRing(128)
	for i := 1; i <= 100; i++ {
		ring.add(float64(i))
	}
	vals, _, _ = ring.percentiles(99)
	if vals[0] != 99 {
		t.Fatalf("p99 of 1..100 = %g, want 99 (⌈0.99·100⌉ = rank 99)", vals[0])
	}
}

// After the ring wraps, percentiles must cover only the resident window
// while the total keeps counting every observation ever added.
func TestLatencyRingWraparoundWindowVsTotal(t *testing.T) {
	const size = 16
	ring := newLatencyRing(size)
	// 3·size observations; only the last `size` (values 33..48) survive.
	for i := 1; i <= 3*size; i++ {
		ring.add(float64(i))
	}
	vals, window, total := ring.percentiles(0, 100, 50)
	if total != 3*size {
		t.Fatalf("total = %d, want %d", total, 3*size)
	}
	if window != size {
		t.Fatalf("window = %d, want %d", window, size)
	}
	if vals[0] != float64(2*size+1) {
		t.Fatalf("window min = %g, want %d (evicted entries must not count)", vals[0], 2*size+1)
	}
	if vals[1] != float64(3*size) {
		t.Fatalf("window max = %g, want %d", vals[1], 3*size)
	}
	if want := float64(2*size + size/2); vals[2] != want {
		t.Fatalf("window p50 = %g, want %g", vals[2], want)
	}
}
