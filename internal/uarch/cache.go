// Package uarch is the repository's stand-in for SimpleScalar, the
// architectural simulator of the paper's §5 experimental setup ("an EV6-like
// out-of-order core simulated with SimpleScalar/Wattch", Figs. 10 and 12): a
// trace-synthesizing out-of-order processor timing model. It generates a
// synthetic instruction stream with phase behaviour (gcc-, mcf- and art-like
// presets), runs it through branch prediction, a two-level cache hierarchy
// and a dataflow pipeline model, and emits per-interval activity counts for
// every microarchitectural unit of the EV6 floorplan. Package power converts
// those counts into the per-block power traces consumed by the thermal
// model. A CPU's run can also be recorded as a Tape, one cycle and one kind
// byte per instruction; because splitting a run never changes the
// simulated machine, a throttled run of the same stream is a prefix of the
// tape cut at other cycles. The closed-loop scenario engine
// (internal/scenario) records each workload phase once per request and
// lets every DTM grid cell read its throttled steps from the tape, so
// throttling feeds back into the stream's timing without a CPU per cell.
//
// The timing model is deliberately at the "interval simulation" altitude:
// per-instruction dataflow with functional-unit contention and in-order
// commit, rather than a cycle-by-cycle scheduler. That keeps whole-program
// simulation fast enough to regenerate the paper's 40 000-sample temperature
// traces while preserving the phase structure, cache behaviour and unit
// utilization that drive per-block power.
package uarch

// Cache is a set-associative cache with LRU replacement. Addresses are byte
// addresses; only tags are stored, in one flat set-major array beside the
// ways' last-use stamps: set s occupies [s·ways, (s+1)·ways) of both.
type Cache struct {
	sets      int
	ways      int
	lineShift uint
	tags      []uint64 // ^0 marks an invalid way
	lru       []uint64
	stamp     uint64

	Accesses uint64
	Misses   uint64
}

// NewCache builds a cache of the given total size in bytes, associativity
// and line size (a power of two).
func NewCache(sizeBytes, ways, lineBytes int) *Cache {
	if sizeBytes <= 0 || ways <= 0 || lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		panic("uarch: invalid cache geometry")
	}
	lines := sizeBytes / lineBytes
	sets := lines / ways
	if sets < 1 {
		sets = 1
	}
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	c := &Cache{sets: sets, ways: ways, lineShift: shift,
		tags: make([]uint64, sets*ways), lru: make([]uint64, sets*ways)}
	c.Reset()
	return c
}

// Reset empties the cache to the state NewCache builds: every way invalid,
// stamps and counters zero.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = ^uint64(0)
	}
	clear(c.lru)
	c.stamp, c.Accesses, c.Misses = 0, 0, 0
}

// Access looks up addr, filling the line on a miss. It returns true on hit.
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	c.stamp++
	line := addr >> c.lineShift
	set := int(line % uint64(c.sets))
	tag := line / uint64(c.sets)
	base := set * c.ways
	tags := c.tags[base : base+c.ways]
	lru := c.lru[base : base+c.ways]
	for w, t := range tags {
		if t == tag {
			lru[w] = c.stamp
			return true
		}
	}
	c.Misses++
	// Evict LRU way.
	victim, oldest := 0, lru[0]
	for w := 1; w < len(lru); w++ {
		if lru[w] < oldest {
			victim, oldest = w, lru[w]
		}
	}
	tags[victim] = tag
	lru[victim] = c.stamp
	return false
}

// MissRate returns the observed miss rate (0 when never accessed).
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// ResetStats clears the access counters (contents are kept).
func (c *Cache) ResetStats() { c.Accesses, c.Misses = 0, 0 }

// BPred is a tournament branch predictor in the style of the Alpha 21264
// (the EV6 the paper's floorplan models): a PC-indexed bimodal table, a
// history-indexed gshare table, and a PC-indexed chooser that learns which
// component predicts each branch better.
type BPred struct {
	bits    uint
	bimodal []uint8
	gshare  []uint8
	chooser []uint8
	history uint64

	Lookups     uint64
	Mispredicts uint64
}

// NewBPred builds a tournament predictor with 2^bits counters per table.
func NewBPred(bits uint) *BPred {
	if bits == 0 || bits > 24 {
		panic("uarch: bad predictor size")
	}
	b := &BPred{bits: bits, bimodal: make([]uint8, 1<<bits), gshare: make([]uint8, 1<<bits), chooser: make([]uint8, 1<<bits)}
	b.Reset()
	return b
}

// Reset forgets everything learned, to the state NewBPred builds: every
// counter weakly not-taken (1), no history, zero counters.
func (b *BPred) Reset() {
	for _, t := range [...][]uint8{b.bimodal, b.gshare, b.chooser} {
		for i := range t {
			t[i] = 1
		}
	}
	b.history, b.Lookups, b.Mispredicts = 0, 0, 0
}

func bump(t []uint8, i uint64, up bool) {
	if up {
		if t[i] < 3 {
			t[i]++
		}
	} else if t[i] > 0 {
		t[i]--
	}
}

// Predict consults and updates the predictor for a branch at pc with the
// actual outcome; it returns true when the prediction was correct.
func (b *BPred) Predict(pc uint64, taken bool) bool {
	b.Lookups++
	mask := uint64(1)<<b.bits - 1
	// Branch sites are 32-byte aligned in the synthetic stream; fold the
	// high bits down so the full table is used.
	key := pc>>5 ^ pc>>2
	pi := key & mask
	gi := (key ^ b.history) & mask
	predB := b.bimodal[pi] >= 2
	predG := b.gshare[gi] >= 2
	pred := predB
	if b.chooser[pi] >= 2 {
		pred = predG
	}
	// Update component tables toward the outcome, the chooser toward
	// whichever component was right (when they disagree).
	bump(b.bimodal, pi, taken)
	bump(b.gshare, gi, taken)
	if predB != predG {
		bump(b.chooser, pi, predG == taken)
	}
	b.history = (b.history<<1 | boolBit(taken)) & mask
	correct := pred == taken
	if !correct {
		b.Mispredicts++
	}
	return correct
}

// MispredictRate returns the observed misprediction rate.
func (b *BPred) MispredictRate() float64 {
	if b.Lookups == 0 {
		return 0
	}
	return float64(b.Mispredicts) / float64(b.Lookups)
}

// ResetStats clears the counters (learned state is kept).
func (b *BPred) ResetStats() { b.Lookups, b.Mispredicts = 0, 0 }

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
