package uarch

import (
	"fmt"
	"math/rand"
	"slices"
)

// InstrClass classifies synthetic instructions by the functional unit they
// exercise.
type InstrClass int

const (
	IntALU InstrClass = iota
	IntMul
	FPAdd
	FPMul
	Load
	Store
	Branch
	numClasses
)

func (c InstrClass) String() string {
	switch c {
	case IntALU:
		return "int-alu"
	case IntMul:
		return "int-mul"
	case FPAdd:
		return "fp-add"
	case FPMul:
		return "fp-mul"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	default:
		return fmt.Sprintf("InstrClass(%d)", int(c))
	}
}

// Instr is one synthetic instruction.
type Instr struct {
	Class InstrClass
	// PC is the instruction address (drives I-cache and predictor).
	PC uint64
	// Addr is the data address for loads/stores.
	Addr uint64
	// Taken is the branch outcome.
	Taken bool
	// DepDist is the distance (in instructions) to the producer this
	// instruction waits on; 0 means no register dependence.
	DepDist int
}

// Phase is one program phase of a synthetic workload: an instruction mix
// plus locality and ILP knobs.
type Phase struct {
	Name string
	// Mix holds relative weights per instruction class (normalized
	// internally).
	Mix [7]float64
	// BranchBias is the probability that a predictable branch is biased
	// toward taken (vs. toward not-taken).
	BranchBias float64
	// HardBranchFrac is the fraction of static branches that are
	// data-dependent (taken probability near 0.5, essentially
	// unpredictable); the rest are strongly biased and easy to predict.
	HardBranchFrac float64
	// CodeFootprint and DataFootprint are working-set sizes in bytes.
	CodeFootprint int
	DataFootprint int
	// MeanDepDist controls ILP: larger mean dependency distance = more
	// instruction-level parallelism.
	MeanDepDist float64
	// MeanLength is the expected phase length in instructions.
	MeanLength int
}

// Workload is a Markov chain over phases.
type Workload struct {
	Name   string
	Phases []Phase
	// Transition[i][j] is the probability of moving from phase i to phase
	// j when a phase ends. Rows are normalized internally.
	Transition [][]float64
}

// Validate reports structural errors in the workload definition.
func (w Workload) Validate() error {
	if len(w.Phases) == 0 {
		return fmt.Errorf("uarch: workload %q has no phases", w.Name)
	}
	if len(w.Transition) != len(w.Phases) {
		return fmt.Errorf("uarch: workload %q transition matrix is %d×?, want %d rows", w.Name, len(w.Transition), len(w.Phases))
	}
	for i, row := range w.Transition {
		if len(row) != len(w.Phases) {
			return fmt.Errorf("uarch: workload %q transition row %d has %d entries", w.Name, i, len(row))
		}
		var s float64
		for _, p := range row {
			if p < 0 {
				return fmt.Errorf("uarch: negative transition probability")
			}
			s += p
		}
		if s == 0 {
			return fmt.Errorf("uarch: workload %q transition row %d sums to zero", w.Name, i)
		}
	}
	for _, ph := range w.Phases {
		var s float64
		for _, m := range ph.Mix {
			if m < 0 {
				return fmt.Errorf("uarch: phase %q has a negative mix weight", ph.Name)
			}
			s += m
		}
		if s == 0 {
			return fmt.Errorf("uarch: phase %q has an empty mix", ph.Name)
		}
		if ph.MeanLength <= 0 || ph.CodeFootprint <= 0 || ph.DataFootprint <= 0 {
			return fmt.Errorf("uarch: phase %q has non-positive knobs", ph.Name)
		}
	}
	return nil
}

// Stream synthesizes the instruction sequence of a workload.
type Stream struct {
	w   Workload
	rng *rand.Rand

	phase     int
	remaining int
	cum       [][7]float64 // cumulative mix per phase

	// Code layout: each phase's footprint is divided into fixed "functions"
	// the stream loops within and jumps between with a skew toward a hot
	// few — this gives the instruction stream realistic loop/call structure
	// so the I-cache and branch predictor see reuse.
	curFunc uint64
	funcOff uint64

	branchBias map[uint64]float64
}

// funcBytes is the synthetic function size (a power of two).
const funcBytes = 4096

// NewStream creates a deterministic synthetic stream for the workload.
func NewStream(w Workload, seed int64) (*Stream, error) {
	s := &Stream{}
	if err := s.Reset(w, seed); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset rewinds the stream to the state NewStream(w, seed) builds, reusing
// its random source, mix table and branch-bias map: the instruction
// sequence that follows is the fresh stream's.
func (s *Stream) Reset(w Workload, seed int64) error {
	if err := w.Validate(); err != nil {
		return err
	}
	rng, bias := s.rng, s.branchBias
	if rng == nil {
		rng = rand.New(rand.NewSource(seed))
	} else {
		rng.Seed(seed)
	}
	if bias == nil {
		bias = make(map[uint64]float64)
	} else {
		clear(bias)
	}
	*s = Stream{w: w, rng: rng, branchBias: bias,
		cum: slices.Grow(s.cum[:0], len(w.Phases))[:len(w.Phases)]}
	for i, ph := range w.Phases {
		var total float64
		for _, m := range ph.Mix {
			total += m
		}
		var acc float64
		for c := 0; c < 7; c++ {
			acc += ph.Mix[c] / total
			s.cum[i][c] = acc
		}
	}
	s.enterPhase(0)
	return nil
}

func (s *Stream) enterPhase(i int) {
	s.phase = i
	ph := s.w.Phases[i]
	// Geometric-ish phase length around the mean.
	s.remaining = 1 + int(float64(ph.MeanLength)*(0.5+s.rng.Float64()))
}

func (s *Stream) nextPhase() {
	row := s.w.Transition[s.phase]
	var total float64
	for _, p := range row {
		total += p
	}
	r := s.rng.Float64() * total
	var acc float64
	for j, p := range row {
		acc += p
		if r <= acc {
			s.enterPhase(j)
			return
		}
	}
	s.enterPhase(len(row) - 1)
}

// PhaseName returns the current phase's name.
func (s *Stream) PhaseName() string { return s.w.Phases[s.phase].Name }

// Next synthesizes the next instruction.
func (s *Stream) Next() Instr {
	if s.remaining <= 0 {
		s.nextPhase()
	}
	s.remaining--
	ph := &s.w.Phases[s.phase]
	r := s.rng.Float64()
	class := IntALU
	for c := 0; c < 7; c++ {
		if r <= s.cum[s.phase][c] {
			class = InstrClass(c)
			break
		}
	}
	in := Instr{Class: class}

	// Program counter: walk sequentially within the current function,
	// wrapping at its end (the innermost loop).
	nFuncs := uint64(ph.CodeFootprint) / funcBytes
	if nFuncs == 0 {
		nFuncs = 1
	}
	if s.curFunc >= nFuncs {
		s.curFunc = 0
	}
	s.funcOff = (s.funcOff + 4) % funcBytes
	base := uint64(s.phase) << 32 // distinct code region per phase
	in.PC = base + s.curFunc*funcBytes + s.funcOff

	switch class {
	case Load, Store:
		// Data addresses: 90% from a hot subset (1/16 of the footprint),
		// 10% uniform over the footprint — a coarse stack-distance model.
		fp := uint64(ph.DataFootprint)
		var off uint64
		if s.rng.Float64() < 0.9 {
			off = uint64(s.rng.Int63n(int64(fp/16 + 1)))
		} else {
			off = uint64(s.rng.Int63n(int64(fp)))
		}
		in.Addr = 1<<40 + uint64(s.phase)<<33 + off&^7
	case Branch:
		// Quantize branch sites to 32-byte boundaries so each function has
		// a bounded number of static branches (keeps predictor-table
		// pressure realistic).
		in.PC &^= 31
		bias, ok := s.branchBias[in.PC]
		if !ok {
			// Bimodal per-PC bias: most static branches are strongly
			// biased (predictable), a HardBranchFrac share hover near 0.5.
			if s.rng.Float64() < ph.HardBranchFrac {
				bias = 0.35 + 0.3*s.rng.Float64()
			} else if s.rng.Float64() < ph.BranchBias {
				bias = 0.97
			} else {
				bias = 0.03
			}
			s.branchBias[in.PC] = bias
		}
		in.Taken = s.rng.Float64() < bias
		if in.Taken {
			if s.rng.Float64() < 0.02 {
				// Call/return: move to another function, skewed toward the
				// hot few (quadratic skew).
				r := s.rng.Float64()
				s.curFunc = uint64(r * r * float64(nFuncs))
				if s.curFunc >= nFuncs {
					s.curFunc = nFuncs - 1
				}
				s.funcOff = 0
			} else {
				// Loop back within the function.
				back := uint64(s.rng.Int63n(256)) * 4
				s.funcOff = (s.funcOff + funcBytes - back%funcBytes) % funcBytes
			}
		}
	}

	// Register dependency distance (geometric around the mean).
	if ph.MeanDepDist > 0 && class != Branch {
		d := 1 + int(s.rng.ExpFloat64()*ph.MeanDepDist)
		if d > 64 {
			d = 64
		}
		in.DepDist = d
	}
	return in
}

// --- Workload presets. ---

// GCC is an integer-heavy, bursty, control-flow-bound workload resembling
// the SPEC CPU gcc benchmark the paper uses for Figs. 10 and 12: high
// IntALU/IntReg activity, hard-to-predict branches, and alternating
// compute/memory phases.
func GCC() Workload {
	return Workload{
		Name: "gcc",
		Phases: []Phase{
			{
				Name:       "parse",
				Mix:        [7]float64{IntALU: 0.44, IntMul: 0.02, Load: 0.24, Store: 0.10, Branch: 0.20},
				BranchBias: 0.55, HardBranchFrac: 0.25,
				CodeFootprint: 192 << 10, DataFootprint: 512 << 10,
				MeanDepDist: 3, MeanLength: 400_000,
			},
			{
				Name:       "optimize",
				Mix:        [7]float64{IntALU: 0.55, IntMul: 0.03, Load: 0.20, Store: 0.07, Branch: 0.15},
				BranchBias: 0.5, HardBranchFrac: 0.18,
				CodeFootprint: 96 << 10, DataFootprint: 128 << 10,
				MeanDepDist: 5, MeanLength: 600_000,
			},
			{
				Name:       "emit",
				Mix:        [7]float64{IntALU: 0.38, Load: 0.26, Store: 0.20, Branch: 0.16},
				BranchBias: 0.65, HardBranchFrac: 0.12,
				CodeFootprint: 64 << 10, DataFootprint: 1 << 20,
				MeanDepDist: 4, MeanLength: 300_000,
			},
		},
		Transition: [][]float64{
			{0.2, 0.6, 0.2},
			{0.3, 0.4, 0.3},
			{0.5, 0.3, 0.2},
		},
	}
}

// MCF is a memory-bound pointer-chasing workload: large data footprint, low
// ILP, cache-miss dominated.
func MCF() Workload {
	return Workload{
		Name: "mcf",
		Phases: []Phase{
			{
				Name:       "chase",
				Mix:        [7]float64{IntALU: 0.30, Load: 0.42, Store: 0.08, Branch: 0.20},
				BranchBias: 0.5, HardBranchFrac: 0.35,
				CodeFootprint: 16 << 10, DataFootprint: 16 << 20,
				MeanDepDist: 1.2, MeanLength: 800_000,
			},
			{
				Name:       "relax",
				Mix:        [7]float64{IntALU: 0.40, Load: 0.35, Store: 0.10, Branch: 0.15},
				BranchBias: 0.7, HardBranchFrac: 0.2,
				CodeFootprint: 16 << 10, DataFootprint: 4 << 20,
				MeanDepDist: 2, MeanLength: 400_000,
			},
		},
		Transition: [][]float64{
			{0.7, 0.3},
			{0.5, 0.5},
		},
	}
}

// ART is a floating-point loop nest: high FP utilization, predictable
// branches, streaming memory.
func ART() Workload {
	return Workload{
		Name: "art",
		Phases: []Phase{
			{
				Name:       "train",
				Mix:        [7]float64{IntALU: 0.18, FPAdd: 0.28, FPMul: 0.22, Load: 0.22, Store: 0.06, Branch: 0.04},
				BranchBias: 0.95, HardBranchFrac: 0.02,
				CodeFootprint: 8 << 10, DataFootprint: 2 << 20,
				MeanDepDist: 6, MeanLength: 1_000_000,
			},
			{
				Name:       "match",
				Mix:        [7]float64{IntALU: 0.22, FPAdd: 0.30, FPMul: 0.16, Load: 0.24, Store: 0.04, Branch: 0.04},
				BranchBias: 0.9, HardBranchFrac: 0.04,
				CodeFootprint: 8 << 10, DataFootprint: 1 << 20,
				MeanDepDist: 5, MeanLength: 700_000,
			},
		},
		Transition: [][]float64{
			{0.6, 0.4},
			{0.4, 0.6},
		},
	}
}

// Preset returns the named workload preset ("gcc", "mcf" or "art"),
// building only that one.
func Preset(name string) (Workload, bool) {
	switch name {
	case "gcc":
		return GCC(), true
	case "mcf":
		return MCF(), true
	case "art":
		return ART(), true
	}
	return Workload{}, false
}
