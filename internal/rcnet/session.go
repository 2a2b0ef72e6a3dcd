package rcnet

import "repro/internal/linalg"

// Session is an exported per-goroutine steady-state context over one
// compiled Solver: its own solve workspace plus a steady-state warm-start
// vector. Any number of Sessions may run concurrently against the same
// Solver (they share only the immutable conductance operator); a single
// Session must not be used from more than one goroutine at a time.
//
// Long-lived services keep a pool of Sessions per compiled model: repeated
// steady solves then warm-start from the previous solution (the iterative
// backend converges almost immediately for similar power maps). Transients
// step through Solver.Replay, which keeps its own per-call state.
type Session struct {
	s  *Solver
	ws linalg.Workspace
	// steadyWarm is the previous steady solution, used to warm-start the
	// next one; steadyRHS is the right-hand side that produced it, so a
	// repeated identical request is answered by memoization (bit-identical
	// to recomputing: the solve is deterministic in its inputs).
	steadyWarm []float64
	steadyRHS  []float64
}

// NewSession creates an independent solving context. Safe to call
// concurrently.
func (s *Solver) NewSession() *Session {
	return &Session{s: s}
}

// Solver returns the compiled solver this session runs against.
func (se *Session) Solver() *Solver { return se.s }

// SteadyState returns the equilibrium temperatures (Kelvin) for constant
// per-node power injection. A repeat of the session's previous power map
// returns the memoized solution; anything else solves, warm-started from
// the previous solution. Results are identical to Solver.SteadyState (the
// solve is deterministic and both refine to near-direct accuracy); only the
// work differs. The returned slice is the caller's to mutate.
func (se *Session) SteadyState(power []float64) []float64 {
	s := se.s
	b := s.rhs(power)
	if se.steadyRHS != nil && equalVec(b, se.steadyRHS) {
		out := make([]float64, len(se.steadyWarm))
		copy(out, se.steadyWarm)
		return out
	}
	warm := se.steadyWarm
	if warm == nil {
		warm = s.AmbientVector()
	}
	x := s.solveRefined(b, warm, &se.ws)
	se.steadyWarm = append(se.steadyWarm[:0], x...)
	se.steadyRHS = append(se.steadyRHS[:0], b...)
	return x
}

func equalVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
