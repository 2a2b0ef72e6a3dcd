package uarch

import "fmt"

// Unit identifies a microarchitectural unit; values line up with the EV6
// floorplan blocks that package power maps activity onto.
type Unit int

const (
	UIcache Unit = iota
	UDcache
	UL2
	UBpred
	UITB
	UDTB
	UIntReg
	UIntExec
	UIntMap
	UIntQ
	UFPReg
	UFPAdd
	UFPMul
	UFPMap
	UFPQ
	ULdStQ
	NumUnits
)

var unitNames = [NumUnits]string{
	"Icache", "Dcache", "L2", "Bpred", "ITB", "DTB",
	"IntReg", "IntExec", "IntMap", "IntQ",
	"FPReg", "FPAdd", "FPMul", "FPMap", "FPQ", "LdStQ",
}

func (u Unit) String() string {
	if u >= 0 && u < NumUnits {
		return unitNames[u]
	}
	return fmt.Sprintf("Unit(%d)", int(u))
}

// ActivitySample holds per-interval activity: unit access counts over a
// fixed number of cycles.
type ActivitySample struct {
	StartCycle uint64
	Cycles     uint64
	Committed  uint64
	Counts     [NumUnits]uint64
}

// IPC returns committed instructions per cycle for the interval.
func (s ActivitySample) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// CPUConfig describes the modeled machine (defaults are EV6-like).
type CPUConfig struct {
	Width   int // fetch/commit width
	ROBSize int

	// Functional unit counts.
	NIntALU, NIntMul, NFPAdd, NFPMul, NMemPort int

	// Latencies in cycles.
	LatIntALU, LatIntMul, LatFPAdd, LatFPMul int
	LatL1Hit, LatL2Hit, LatMem               int
	MispredictPenalty                        int
	DispatchLatency                          int

	// Cache geometry.
	L1ISize, L1IWays int
	L1DSize, L1DWays int
	L2Size, L2Ways   int
	LineBytes        int

	PredictorBits uint
}

// DefaultCPU returns an EV6-like configuration.
func DefaultCPU() CPUConfig {
	return CPUConfig{
		Width: 4, ROBSize: 80,
		NIntALU: 4, NIntMul: 1, NFPAdd: 2, NFPMul: 1, NMemPort: 2,
		LatIntALU: 1, LatIntMul: 7, LatFPAdd: 4, LatFPMul: 4,
		LatL1Hit: 3, LatL2Hit: 14, LatMem: 180,
		MispredictPenalty: 12, DispatchLatency: 2,
		L1ISize: 64 << 10, L1IWays: 2,
		L1DSize: 64 << 10, L1DWays: 2,
		L2Size: 2 << 20, L2Ways: 8,
		LineBytes:     64,
		PredictorBits: 14,
	}
}

// CPU is the dataflow timing model: per-instruction dispatch with
// dependency tracking through a completion ring, functional-unit contention
// through per-unit next-free times, in-order commit through an effective-
// commit ring, and front-end stalls from I-cache misses and branch
// mispredictions.
type CPU struct {
	cfg    CPUConfig
	l1i    *Cache
	l1d    *Cache
	l2     *Cache
	bp     *BPred
	stream *Stream

	cycle      uint64
	fetchReady uint64
	fetchSlot  int // instructions fetched in the current cycle

	seq       uint64 // instructions dispatched
	complete  []uint64
	effCommit []uint64

	fu [5][]uint64 // next-free time per functional unit, indexed by fuKind

	// fetched is set by the first instruction after a reset, which fetches
	// its I-cache line wherever it falls in the line.
	fetched bool
}

type fuKind int

const (
	fuIntALU fuKind = iota
	fuIntMul
	fuFPAdd
	fuFPMul
	fuMem
)

// NewCPU assembles a CPU over a synthetic instruction stream. It rejects a
// config the timing model cannot run: a width or ROB it cannot fill, a
// missing functional unit, a negative latency, a cache of no bytes or ways,
// a line that is not a power of two of at least one instruction (4 bytes),
// or predictor tables outside 2^1..2^24 counters.
func NewCPU(cfg CPUConfig, stream *Stream) (*CPU, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &CPU{
		cfg:       cfg,
		l1i:       NewCache(cfg.L1ISize, cfg.L1IWays, cfg.LineBytes),
		l1d:       NewCache(cfg.L1DSize, cfg.L1DWays, cfg.LineBytes),
		l2:        NewCache(cfg.L2Size, cfg.L2Ways, cfg.LineBytes),
		bp:        NewBPred(cfg.PredictorBits),
		complete:  make([]uint64, cfg.ROBSize),
		effCommit: make([]uint64, cfg.ROBSize),
	}
	c.fu[fuIntALU] = make([]uint64, cfg.NIntALU)
	c.fu[fuIntMul] = make([]uint64, cfg.NIntMul)
	c.fu[fuFPAdd] = make([]uint64, cfg.NFPAdd)
	c.fu[fuFPMul] = make([]uint64, cfg.NFPMul)
	c.fu[fuMem] = make([]uint64, cfg.NMemPort)
	if err := c.Reset(stream); err != nil {
		return nil, err
	}
	return c, nil
}

func (cfg *CPUConfig) validate() error {
	if cfg.Width <= 0 || cfg.ROBSize <= cfg.Width {
		return fmt.Errorf("uarch: invalid width/ROB: %d/%d", cfg.Width, cfg.ROBSize)
	}
	for _, f := range [...]struct {
		name     string
		n, least int
	}{
		{"NIntALU", cfg.NIntALU, 1}, {"NIntMul", cfg.NIntMul, 1}, {"NFPAdd", cfg.NFPAdd, 1},
		{"NFPMul", cfg.NFPMul, 1}, {"NMemPort", cfg.NMemPort, 1},
		{"L1ISize", cfg.L1ISize, 1}, {"L1IWays", cfg.L1IWays, 1},
		{"L1DSize", cfg.L1DSize, 1}, {"L1DWays", cfg.L1DWays, 1},
		{"L2Size", cfg.L2Size, 1}, {"L2Ways", cfg.L2Ways, 1},
		{"LatIntALU", cfg.LatIntALU, 0}, {"LatIntMul", cfg.LatIntMul, 0},
		{"LatFPAdd", cfg.LatFPAdd, 0}, {"LatFPMul", cfg.LatFPMul, 0},
		{"LatL1Hit", cfg.LatL1Hit, 0}, {"LatL2Hit", cfg.LatL2Hit, 0}, {"LatMem", cfg.LatMem, 0},
		{"MispredictPenalty", cfg.MispredictPenalty, 0}, {"DispatchLatency", cfg.DispatchLatency, 0},
	} {
		if f.n < f.least {
			return fmt.Errorf("uarch: %s must be at least %d, got %d", f.name, f.least, f.n)
		}
	}
	if cfg.LineBytes < 4 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return fmt.Errorf("uarch: LineBytes must be a power of two of at least 4, got %d", cfg.LineBytes)
	}
	if cfg.PredictorBits < 1 || cfg.PredictorBits > 24 {
		return fmt.Errorf("uarch: PredictorBits must be in 1..24, got %d", cfg.PredictorBits)
	}
	return nil
}

// Reset returns the CPU to the state NewCPU builds over stream: cold
// caches, an untrained predictor, empty rings, idle functional units, cycle
// zero and no instruction fetched yet. Only the allocations are kept.
func (c *CPU) Reset(stream *Stream) error {
	if stream == nil {
		return fmt.Errorf("uarch: nil stream")
	}
	*c = CPU{cfg: c.cfg, l1i: c.l1i, l1d: c.l1d, l2: c.l2, bp: c.bp, stream: stream,
		complete: c.complete, effCommit: c.effCommit, fu: c.fu}
	c.l1i.Reset()
	c.l1d.Reset()
	c.l2.Reset()
	c.bp.Reset()
	clear(c.complete)
	clear(c.effCommit)
	for _, units := range c.fu {
		clear(units)
	}
	return nil
}

// Cycle returns the current simulated cycle.
func (c *CPU) Cycle() uint64 { return c.cycle }

// claimFU returns the earliest start ≥ earliest on any unit of the kind and
// books the unit until start+busy.
func (c *CPU) claimFU(kind fuKind, earliest uint64, busy int) uint64 {
	units := c.fu[kind]
	best := 0
	for i := 1; i < len(units); i++ {
		if units[i] < units[best] {
			best = i
		}
	}
	start := earliest
	if units[best] > start {
		start = units[best]
	}
	units[best] = start + uint64(busy)
	return start
}

// memAccess performs the cache walk for a data access and returns the load-
// to-use latency and whether the L1 D-cache missed.
func (c *CPU) memAccess(addr uint64) (lat int, l1Miss bool) {
	if c.l1d.Access(addr) {
		return c.cfg.LatL1Hit, false
	}
	if c.l2.Access(addr) {
		return c.cfg.LatL2Hit, true
	}
	return c.cfg.LatMem, true
}

// Instruction kinds. A dispatched instruction's unit activity depends only
// on its class and on whether it fetched an I-cache line, missed the L1
// I-cache on that fetch, or missed the L1 D-cache, so one byte holds it:
// the class in the low three bits, then one bit per event. kindUnits turns
// a kind into unit counts; Run counts kinds, and a Tape stores one kind per
// instruction.
const (
	kindClass = 7      // mask of the InstrClass bits
	kindFetch = 1 << 3 // fetched an I-cache line: an I-cache and an ITB access
	kindIMiss = 1 << 4 // that fetch missed the L1 I-cache: an L2 access
	kindDMiss = 1 << 5 // the load or store missed the L1 D-cache: an L2 access
	numKinds  = 1 << 6
)

// kindUnits holds the unit counts of one instruction of each kind.
var kindUnits = func() (t [numKinds][NumUnits]uint8) {
	for k := range t {
		u := &t[k]
		switch InstrClass(k & kindClass) {
		case IntALU, IntMul:
			u[UIntExec]++
		case FPAdd:
			u[UFPAdd]++
		case FPMul:
			u[UFPMul]++
		case Load, Store:
			u[UDcache]++
			u[UDTB]++
			u[ULdStQ]++
		case Branch:
			u[UBpred]++
			u[UIntExec]++
		default:
			continue // no instruction has this class
		}
		if c := InstrClass(k & kindClass); c == FPAdd || c == FPMul {
			u[UFPMap]++
			u[UFPQ]++
			u[UFPReg] += 3
		} else {
			u[UIntMap]++
			u[UIntQ]++
			u[UIntReg] += 3 // two reads, one write
		}
		if k&kindFetch != 0 {
			u[UIcache]++
			u[UITB]++
		}
		if k&kindIMiss != 0 {
			u[UL2]++
		}
		if k&kindDMiss != 0 {
			u[UL2]++
		}
	}
	return t
}()

// countKinds sums a histogram of instruction kinds into committed
// instructions and unit counts.
func countKinds(hist *[numKinds]uint64) (committed uint64, counts [NumUnits]uint64) {
	for k, n := range hist {
		if n == 0 {
			continue
		}
		committed += n
		for u, d := range &kindUnits[k] {
			counts[u] += n * uint64(d)
		}
	}
	return committed, counts
}

// step dispatches one instruction, advances the model and returns the
// instruction's kind.
func (c *CPU) step() uint8 {
	in := c.stream.Next()
	cfg := &c.cfg
	kind := uint8(in.Class)

	// Fetch bandwidth: Width instructions per cycle.
	if c.fetchSlot >= cfg.Width {
		c.cycle++
		c.fetchSlot = 0
	}
	c.fetchSlot++
	if c.cycle < c.fetchReady {
		c.cycle = c.fetchReady
		c.fetchSlot = 1
	}

	// I-cache access once per line, and for the first instruction.
	lineInstrs := uint64(cfg.LineBytes / 4)
	if in.PC/4%lineInstrs == 0 || !c.fetched {
		c.fetched = true
		kind |= kindFetch
		if !c.l1i.Access(in.PC) {
			kind |= kindIMiss
			lat := cfg.LatL2Hit
			if !c.l2.Access(in.PC) {
				lat = cfg.LatMem
			}
			c.fetchReady = c.cycle + uint64(lat)
		}
	}

	// ROB occupancy: when full, stall fetch until the head commits.
	ring := len(c.complete)
	idx := int(c.seq) % ring
	if c.seq >= uint64(ring) {
		headCommit := c.effCommit[idx] // entry about to be overwritten
		if c.cycle < headCommit {
			c.cycle = headCommit
			c.fetchSlot = 1
		}
	}

	// Dependency.
	ready := c.cycle + uint64(cfg.DispatchLatency)
	if in.DepDist > 0 && uint64(in.DepDist) <= c.seq && in.DepDist < ring {
		dep := c.complete[int(c.seq-uint64(in.DepDist))%ring]
		if dep > ready {
			ready = dep
		}
	}

	// Issue + execute.
	var done uint64
	switch in.Class {
	case IntALU:
		start := c.claimFU(fuIntALU, ready, 1)
		done = start + uint64(cfg.LatIntALU)
	case IntMul:
		start := c.claimFU(fuIntMul, ready, cfg.LatIntMul) // unpipelined
		done = start + uint64(cfg.LatIntMul)
	case FPAdd:
		start := c.claimFU(fuFPAdd, ready, 1)
		done = start + uint64(cfg.LatFPAdd)
	case FPMul:
		start := c.claimFU(fuFPMul, ready, 1)
		done = start + uint64(cfg.LatFPMul)
	case Load, Store:
		start := c.claimFU(fuMem, ready, 1)
		lat, miss := c.memAccess(in.Addr)
		if miss {
			kind |= kindDMiss
		}
		done = start + uint64(lat)
		if in.Class == Store {
			done = start + 1 // buffered store
		}
	case Branch:
		start := c.claimFU(fuIntALU, ready, 1)
		done = start + uint64(cfg.LatIntALU)
		if !c.bp.Predict(in.PC, in.Taken) {
			refill := done + uint64(cfg.MispredictPenalty)
			if refill > c.fetchReady {
				c.fetchReady = refill
			}
		}
	}

	// Commit bookkeeping.
	c.complete[idx] = done
	eff := done
	prev := c.effCommit[(idx+ring-1)%ring]
	if c.seq == 0 {
		prev = 0
	}
	if prev > eff {
		eff = prev
	}
	c.effCommit[idx] = eff
	c.seq++
	return kind
}

// Run simulates until at least totalCycles have elapsed, flushing an
// ActivitySample every intervalCycles. The final partial interval is
// included when it covers at least one cycle. Splitting a run never changes
// the simulated machine: runs to the same end cycle dispatch the same
// instructions with the same timing and counts, however they are chunked.
func (c *CPU) Run(totalCycles, intervalCycles uint64) ([]ActivitySample, error) {
	if intervalCycles == 0 || totalCycles < intervalCycles {
		return nil, fmt.Errorf("uarch: need totalCycles ≥ intervalCycles > 0")
	}
	var out []ActivitySample
	var hist [numKinds]uint64
	intervalStart := c.cycle
	flush := func(end uint64) {
		s := ActivitySample{StartCycle: intervalStart, Cycles: end - intervalStart}
		s.Committed, s.Counts = countKinds(&hist)
		out = append(out, s)
		hist = [numKinds]uint64{}
		intervalStart = end
	}
	endCycle := c.cycle + totalCycles
	next := intervalStart + intervalCycles
	for c.cycle < endCycle {
		hist[c.step()]++
		for c.cycle >= next && next <= endCycle {
			flush(next)
			next += intervalCycles
		}
	}
	if c.cycle > intervalStart && intervalStart < endCycle {
		flush(min64(c.cycle, endCycle))
	}
	return out, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// Stats exposes cache and predictor statistics for inspection.
func (c *CPU) Stats() (l1iMiss, l1dMiss, l2Miss, mispredict float64) {
	return c.l1i.MissRate(), c.l1d.MissRate(), c.l2.MissRate(), c.bp.MispredictRate()
}
