package uarch

import (
	"fmt"
	"slices"
)

// Tape is a run recorded instruction by instruction: for each dispatched
// instruction, the cycle the CPU reached after it and the instruction's
// kind, from which kindUnits gives its unit counts. Because splitting a run
// never changes the simulated machine, a TapeReader replaying a tape to any
// sequence of end cycles returns exactly the samples the recorded CPU's Run
// would return over the same end cycles. A tape is read-only once recorded,
// so any number of readers may share it.
type Tape struct {
	cycles []uint64
	kinds  []uint8
}

// Len returns the number of instructions on the tape.
func (t *Tape) Len() int { return len(t.kinds) }

// Reset empties the tape, keeping its buffers.
func (t *Tape) Reset() { t.cycles, t.kinds = t.cycles[:0], t.kinds[:0] }

// Clone returns a copy of the tape whose buffers hold exactly its
// instructions.
func (t *Tape) Clone() *Tape {
	c := &Tape{cycles: make([]uint64, len(t.cycles)), kinds: make([]uint8, len(t.kinds))}
	copy(c.cycles, t.cycles)
	copy(c.kinds, t.kinds)
	return c
}

// MaxInstrs returns the most instructions a CPU of this configuration
// dispatches from reset until its cycle reaches endCycle: Width per cycle
// below endCycle, plus the one that reaches it. It bounds the length of a
// tape recorded to endCycle, before anything is simulated.
func (cfg CPUConfig) MaxInstrs(endCycle uint64) uint64 {
	return uint64(cfg.Width)*endCycle + 1
}

// Record steps the CPU until its cycle reaches endCycle, as Run does, and
// appends each dispatched instruction to t instead of counting it.
func (c *CPU) Record(t *Tape, endCycle uint64) {
	for c.cycle < endCycle {
		kind := c.step()
		t.cycles = append(t.cycles, c.cycle)
		t.kinds = append(t.kinds, kind)
	}
}

// TapeReader replays a Tape from its first instruction.
type TapeReader struct {
	tape  *Tape
	pos   int    // instructions consumed
	cycle uint64 // cycle reached after them
}

// Reader returns a reader at the tape's start: nothing consumed, cycle
// zero, as the recorded CPU was after its reset.
func (t *Tape) Reader() TapeReader { return TapeReader{tape: t} }

// ReadTo consumes taped instructions until the cycle reached is at least
// endCycle, stopping at the instruction where the recorded CPU's Run to
// endCycle stopped, and returns their activity as the one sample that Run
// returned. It reads nothing when the cycle already reached endCycle, and
// fails if the tape ends first.
func (r *TapeReader) ReadTo(endCycle uint64) (ActivitySample, error) {
	s := ActivitySample{StartCycle: r.cycle}
	if r.cycle >= endCycle {
		return s, nil
	}
	// Cycles never decrease, so the last instruction to consume is the first
	// whose cycle reaches endCycle.
	last, _ := slices.BinarySearch(r.tape.cycles[r.pos:], endCycle)
	last += r.pos
	if last == len(r.tape.cycles) {
		return s, fmt.Errorf("uarch: tape of %d instructions ends before cycle %d", r.tape.Len(), endCycle)
	}
	var hist [numKinds]uint64
	for _, k := range r.tape.kinds[r.pos : last+1] {
		hist[k]++
	}
	s.Cycles = endCycle - s.StartCycle
	s.Committed, s.Counts = countKinds(&hist)
	r.pos, r.cycle = last+1, r.tape.cycles[last]
	return s, nil
}
