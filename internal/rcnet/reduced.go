package rcnet

import (
	"fmt"

	"repro/internal/linalg"
)

// This file holds the reduced-order (MOR) compile path: CompileReduced
// projects the assembled conductance system onto a block-Krylov basis
// (linalg.NewReducedOperator), after which every backward-Euler step of the
// one batched step is a dense O(n·r + r²) solve — the per-user serving
// regime. The projection is approximate, so the batch step samples an
// a-posteriori residual against the exact matrix and trips the solver back
// onto its full backend when the gate is exceeded (DESIGN.md §10.3);
// construction failures fall back at compile time.

// DefaultReducedOrder caps the reduced basis size when ReducedSpec.Order is
// unset. It sits at the top of the useful range: floorplan-scale networks
// deflate to an exact basis well below it, and grid models keep enough
// moments for sub-0.1 K transient drift.
const DefaultReducedOrder = 160

// DefaultReducedResidualGate is the relative backward-Euler residual
// ‖b − A·x‖/‖b‖ above which a sampled reduced step trips the solver onto
// its full backend. The right-hand side of a BE step is dominated by the
// C/dt·T term, so a relative residual of r maps to a per-step temperature
// error on the order of r·T — 1e-6 keeps accumulated drift well inside the
// 0.1 K golden gate with a wide margin over the ~1e-12 residuals a healthy
// basis produces.
const DefaultReducedResidualGate = 1e-6

// ReducedSpec configures CompileReduced.
type ReducedSpec struct {
	// Inputs lists the node indices that carry power injection: they become
	// the input columns B the Krylov basis is built from (the hotspot layer
	// passes its per-block silicon nodes). Nil means every node, which
	// reduces nothing unless Order caps well below N.
	Inputs []int
	// Order caps the basis size (0 = DefaultReducedOrder, always capped at
	// N). Larger orders track the full model more closely and step slower.
	Order int
	// Shift is the second moment-matching frequency in rad/s (0 = automatic
	// selection from the network's conductance/capacitance rates).
	Shift float64
	// ResidualGate overrides DefaultReducedResidualGate (0 = default).
	ResidualGate float64
}

// reducedBackend is the linalg.Backend tag for solvers compiled through
// CompileReduced. Assembly needs the capacitances and input columns, which
// the Backend interface does not carry, so it happens in CompileReduced;
// the tag exists to name the backend in Solver.Backend and stats.
type reducedBackend struct{}

func (reducedBackend) Name() string { return "reduced" }

func (reducedBackend) Assemble(int, []linalg.Coord) (linalg.Operator, error) {
	return nil, fmt.Errorf("rcnet: the reduced backend assembles through CompileReduced")
}

// CompileReduced assembles the network onto the reduced-order backend: a
// block-Arnoldi basis over the (G, C, B) system, backward-Euler steps as
// pre-factored dense solves of dimension Order, full-vector recovery every
// step. If the reduction cannot be built (non-SPD system, every column
// deflated), the network compiles onto the regular full backend instead and
// the fallback is counted in SolverStats; at run time, sampled residual
// checks against the exact matrix trip the same fallback automatically.
func (n *Network) CompileReduced(spec ReducedSpec) (*Solver, error) {
	s, err := n.compileReduced(spec)
	if err == nil {
		return s, nil
	}
	full, ferr := n.Compile()
	if ferr != nil {
		return nil, fmt.Errorf("rcnet: reduced compile failed (%v) and full fallback failed: %w", err, ferr)
	}
	full.stats.reducedFallbacks.Add(1)
	return full, nil
}

func (n *Network) compileReduced(spec ReducedSpec) (*Solver, error) {
	sz := n.N()
	if sz == 0 {
		return nil, fmt.Errorf("rcnet: empty network")
	}
	if err := n.checkGrounded(); err != nil {
		return nil, err
	}
	cols, err := n.inputColumns(spec.Inputs)
	if err != nil {
		return nil, err
	}
	order := spec.Order
	if order <= 0 {
		order = DefaultReducedOrder
	}
	g := linalg.NewCSR(sz, n.assemble())
	op, err := linalg.NewReducedOperator(g, n.cap, cols, order, spec.Shift)
	if err != nil {
		return nil, err
	}
	inv := make([]float64, sz)
	for i, c := range n.cap {
		inv[i] = 1 / c
	}
	amb := make([]float64, sz)
	for i, g := range n.ambG {
		amb[i] = g * n.ambient
	}
	gate := spec.ResidualGate
	if gate <= 0 {
		gate = DefaultReducedResidualGate
	}
	s := &Solver{
		net: n, backend: reducedBackend{}, op: op, invCap: inv, ambRHS: amb,
		beOps: make(map[float64]*beEntry), reduced: op, redGate: gate,
	}
	s.stats.factorizations.Add(1)
	return s, nil
}

// inputColumns builds the basis input block: one unit column per distinct
// power-input node (every node when inputs is nil) plus, when present, the
// constant ambient right-hand-side direction — steady states and warm
// starts then lie in the very first Krylov block.
func (n *Network) inputColumns(inputs []int) ([][]float64, error) {
	sz := n.N()
	var cols [][]float64
	if inputs == nil {
		cols = make([][]float64, 0, sz+1)
		for i := 0; i < sz; i++ {
			e := make([]float64, sz)
			e[i] = 1
			cols = append(cols, e)
		}
	} else {
		seen := make([]bool, sz)
		cols = make([][]float64, 0, len(inputs)+1)
		for _, i := range inputs {
			if i < 0 || i >= sz {
				return nil, fmt.Errorf("rcnet: reduced input node %d out of range [0,%d)", i, sz)
			}
			if seen[i] {
				continue
			}
			seen[i] = true
			e := make([]float64, sz)
			e[i] = 1
			cols = append(cols, e)
		}
	}
	amb := make([]float64, sz)
	nonzero := false
	for i, g := range n.ambG {
		if g > 0 {
			amb[i] = g * n.ambient
			nonzero = true
		}
	}
	if nonzero {
		cols = append(cols, amb)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("rcnet: reduced compile has no input columns")
	}
	return cols, nil
}

// baseOp returns the conductance operator current solves derive from: the
// reduced projection until the residual gate trips, the lazily-compiled
// full-backend operator afterwards.
func (s *Solver) baseOp() linalg.Operator {
	if s.reduced != nil && s.epoch.Load() != 0 {
		if op, err := s.fullOperator(); err == nil {
			return op
		}
	}
	return s.op
}

// fullOperator lazily assembles the full-backend conductance operator a
// tripped reduced solver falls back onto, with Compile's backend choice.
func (s *Solver) fullOperator() (linalg.Operator, error) {
	s.fullOnce.Do(func() {
		sz := s.net.N()
		entries := s.net.assemble()
		s.fullOp, s.fullErr = autoSelect(sz, func(b linalg.Backend) (linalg.Operator, error) {
			return b.Assemble(sz, entries)
		})
		if s.fullErr == nil && !s.fullOp.Iterative() {
			s.stats.factorizations.Add(1)
		}
	})
	return s.fullOp, s.fullErr
}

// tripReduced switches the solver from the reduced projection onto the full
// backend: the backward-Euler factor cache is dropped (its entries were
// reduced projections) and the epoch is bumped so every live batch session
// refetches its operator on the next step. Idempotent; if the full backend
// itself cannot assemble, the solver stays on the reduced path rather than
// failing.
func (s *Solver) tripReduced() {
	if s.reduced == nil {
		return
	}
	if _, err := s.fullOperator(); err != nil {
		return
	}
	s.beMu.Lock()
	if s.epoch.Load() == 0 {
		s.beOps = make(map[float64]*beEntry)
		s.stats.reducedFallbacks.Add(1)
		s.epoch.Add(1)
	}
	s.beMu.Unlock()
}

// checkReducedResidual samples the a-posteriori quality of one reduced
// backward-Euler solve: the relative residual of x against the exact
// shifted matrix. A residual above the gate trips the fallback and reports
// false, telling the batch step to redo itself through the full backend.
func (s *Solver) checkReducedResidual(op *linalg.ReducedOperator, rhs, x, scratch []float64) bool {
	if op.RelativeResidual(rhs, x, scratch) <= s.redGate {
		return true
	}
	s.tripReduced()
	return false
}
