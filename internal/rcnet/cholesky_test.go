package rcnet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// Tests for the sparse direct Cholesky path at the network level: parity
// against the dense LU oracle and the CG backend on random floorplan-shaped
// SPD networks, the factor-cache contract across step sizes, and the
// allocation gate on the stepping hot path.

// compileThree compiles one network onto dense LU, Cholesky and CG.
func compileThree(t *testing.T, n *Network) (dense, chol, cg *Solver) {
	t.Helper()
	d, err := n.CompileHint(HintDense)
	if err != nil {
		t.Fatalf("dense compile: %v", err)
	}
	c, err := n.CompileHint(HintCholesky)
	if err != nil {
		t.Fatalf("cholesky compile: %v", err)
	}
	g, err := n.CompileHint(HintCG)
	if err != nil {
		t.Fatalf("cg compile: %v", err)
	}
	return d, c, g
}

// TestCholeskyParitySteadyState: on random floorplan-shaped networks the
// Cholesky steady state must match the dense LU oracle to 1e-9 relative (the
// acceptance bar — both are direct solves) and the CG answer must sit within
// its refined tolerance of both.
func TestCholeskyParitySteadyState(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		nx, ny := 3+rng.Intn(7), 3+rng.Intn(7)
		net := gridNetwork(rng, nx, ny)
		dense, chol, cg := compileThree(t, net)
		p := randomPower(rng, net.N())
		td := dense.SteadyState(p)
		tc := chol.SteadyState(p)
		tg := cg.SteadyState(p)
		for i := range td {
			rise := math.Max(1, td[i]-net.Ambient())
			if d := math.Abs(td[i] - tc[i]); d > 1e-9*rise {
				t.Fatalf("seed %d (%dx%d): node %d dense %.15g vs cholesky %.15g (Δ=%g)",
					seed, nx, ny, i, td[i], tc[i], d)
			}
			if d := math.Abs(td[i] - tg[i]); d > 1e-7*rise {
				t.Fatalf("seed %d (%dx%d): node %d dense %.15g vs cg %.15g (Δ=%g)",
					seed, nx, ny, i, td[i], tg[i], d)
			}
		}
	}
}

// TestCholeskyParityTransientBE: fixed-step backward-Euler transients on the
// Cholesky path must track the dense oracle to 1e-9 absolute through step-
// size changes (both paths re-derive the shifted operator), and CG within
// its iterative tolerance.
func TestCholeskyParityTransientBE(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(400 + seed))
		net := gridNetwork(rng, 5, 4)
		dense, chol, cg := compileThree(t, net)
		p := randomPower(rng, net.N())
		td := dense.AmbientVector()
		tc := chol.AmbientVector()
		tg := cg.AmbientVector()
		for _, leg := range []struct{ dur, dt float64 }{{0.5, 0.01}, {0.2, 0.004}} {
			for _, run := range []struct {
				s    *Solver
				temp []float64
			}{{dense, td}, {chol, tc}, {cg, tg}} {
				if err := run.s.TransientBE(run.temp, p, leg.dur, leg.dt); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := range td {
			if d := math.Abs(td[i] - tc[i]); d > 1e-9*math.Max(1, math.Abs(td[i]-net.Ambient())) {
				t.Fatalf("seed %d: node %d dense %.15g vs cholesky %.15g (Δ=%g)", seed, i, td[i], tc[i], d)
			}
			if d := math.Abs(td[i] - tg[i]); d > 1e-5 {
				t.Fatalf("seed %d: node %d dense %.15g vs cg %.15g (Δ=%g)", seed, i, td[i], tg[i], d)
			}
		}
	}
}

// TestFactorCacheContract: a session must factor exactly once per distinct
// step size — alternating dt values re-factor only on first sight of each
// dt, every later switch is a cache reuse, and repeated same-dt steps touch
// neither counter.
func TestFactorCacheContract(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	net := gridNetwork(rng, 6, 6)
	s, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if s.Backend() != "cholesky" {
		t.Fatalf("compiled onto %q, want cholesky", s.Backend())
	}
	base := s.Stats()
	if base.Factorizations != 1 {
		t.Fatalf("after compile: %d factorizations, want 1 (the eager conductance factor)", base.Factorizations)
	}
	p := randomPower(rng, net.N())
	se := s.NewSession()
	temp := s.AmbientVector()
	const dt1, dt2 = 1e-3, 2e-3
	steps := []float64{dt1, dt1, dt1, dt2, dt2, dt1, dt2, dt1}
	for i, dt := range steps {
		if err := se.StepBE(temp, p, dt); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	st := s.Stats()
	// One factor per distinct dt on top of the compile-time factor.
	if got := st.Factorizations - base.Factorizations; got != 2 {
		t.Fatalf("factorizations for 2 distinct dts: %d, want 2", got)
	}
	// Every dt switch after first sight is a reuse: dt1→dt2(miss), dt2→dt1
	// (reuse), dt1→dt2 (reuse), dt2→dt1 (reuse).
	if st.FactorReuses != 3 {
		t.Fatalf("factor reuses: %d, want 3", st.FactorReuses)
	}
	if st.DirectSteps != int64(len(steps)) {
		t.Fatalf("direct steps: %d, want %d", st.DirectSteps, len(steps))
	}
	if st.CGSteps != 0 {
		t.Fatalf("cg steps on the cholesky path: %d, want 0", st.CGSteps)
	}
	if st.StepSolveNanos <= 0 {
		t.Fatalf("step solve time not recorded")
	}

	// A second session at an already-cached dt must reuse, not re-factor.
	se2 := s.NewSession()
	temp2 := s.AmbientVector()
	if err := se2.StepBE(temp2, p, dt1); err != nil {
		t.Fatal(err)
	}
	st2 := s.Stats()
	if st2.Factorizations != st.Factorizations {
		t.Fatalf("second session re-factored: %d → %d", st.Factorizations, st2.Factorizations)
	}
	if st2.FactorReuses != st.FactorReuses+1 {
		t.Fatalf("second session did not hit the factor cache")
	}
}

// TestCGPathCountsIterations: the CG fallback path must report its steps and
// iteration totals through the same stats surface.
func TestCGPathCountsIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	net := gridNetwork(rng, 6, 6)
	s, err := net.CompileHint(HintCG)
	if err != nil {
		t.Fatal(err)
	}
	p := randomPower(rng, net.N())
	se := s.NewSession()
	temp := s.AmbientVector()
	for i := 0; i < 5; i++ {
		if err := se.StepBE(temp, p, 1e-3); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.CGSteps != 5 {
		t.Fatalf("cg steps: %d, want 5", st.CGSteps)
	}
	if st.CGIterations < st.CGSteps {
		t.Fatalf("cg iterations %d below step count %d", st.CGIterations, st.CGSteps)
	}
	if st.DirectSteps != 0 {
		t.Fatalf("direct steps on the cg path: %d, want 0", st.DirectSteps)
	}
	if st.Factorizations != 0 {
		t.Fatalf("factorizations on the cg path: %d, want 0", st.Factorizations)
	}
}

// TestStepBEAllocationFree gates the stepping hot path at zero allocations
// per step on every backend (after the first step has grown workspaces and
// factored the operator). This is the regression fence for the transient
// throughput work: a stray per-step allocation shows up here before it shows
// up in a benchmark.
func TestStepBEAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	net := gridNetwork(rng, 6, 6)
	for _, hint := range []SolverHint{HintDense, HintCholesky, HintCG} {
		t.Run(hint.String(), func(t *testing.T) {
			s, err := net.CompileHint(hint)
			if err != nil {
				t.Fatal(err)
			}
			p := randomPower(rng, net.N())
			se := s.NewSession()
			temp := s.AmbientVector()
			if err := se.StepBE(temp, p, 1e-3); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if err := se.StepBE(temp, p, 1e-3); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%v StepBE allocates %v times per step, want 0", hint, allocs)
			}
		})
	}
}

// TestStepBERejectsInvalidDt: non-finite and non-positive step sizes must be
// rejected before touching the solver's (dt → factor) cache — a NaN key
// would insert an unreachable entry per step and silently factor NaN
// temperatures.
func TestStepBERejectsInvalidDt(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	net := gridNetwork(rng, 6, 6)
	s, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	p := randomPower(rng, net.N())
	se := s.NewSession()
	temp := s.AmbientVector()
	want := append([]float64(nil), temp...)
	for _, dt := range []float64{0, -1e-3, math.NaN(), math.Inf(1)} {
		if err := se.StepBE(temp, p, dt); err == nil {
			t.Fatalf("dt=%g: expected error", dt)
		}
	}
	for i := range temp {
		if temp[i] != want[i] {
			t.Fatalf("temperature mutated by rejected step")
		}
	}
	if st := s.Stats(); st.Factorizations != 1 || st.DirectSteps != 0 {
		t.Fatalf("rejected steps touched the solver: %+v", st)
	}
}

// TestCholeskyHintSurfacesSingular: with the escape hatch forcing Cholesky,
// a structurally singular network must still be rejected at Compile (by the
// ground check, exactly like every other backend).
func TestCholeskyHintSurfacesSingular(t *testing.T) {
	n := New(300)
	n.AddNode("a", 1)
	b := n.AddNode("b", 1)
	n.ConnectAmbientR(b, 1)
	if _, err := n.CompileHint(HintCholesky); err == nil {
		t.Fatal("expected floating-island error on the cholesky hint")
	}
}

// TestCholeskySteadyBitStable: two independently compiled Cholesky solvers
// of the same network must produce bitwise-identical steady states (the
// ordering, assembly and factorization are all deterministic).
func TestCholeskySteadyBitStable(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	net := gridNetwork(rng, 7, 5)
	p := randomPower(rng, net.N())
	s1, err := net.CompileHint(HintCholesky)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := net.CompileHint(HintCholesky)
	if err != nil {
		t.Fatal(err)
	}
	t1 := s1.SteadyState(p)
	t2 := s2.SteadyState(p)
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("node %d: %v vs %v (bitwise)", i, t1[i], t2[i])
		}
	}
}

// expanderNetwork builds a random-graph network whose factor fill is huge
// under any bandwidth ordering (each node ties to several random earlier
// nodes, so the graph has no useful separator structure).
func expanderNetwork(rng *rand.Rand, n, degree int) *Network {
	net := New(300)
	for i := 0; i < n; i++ {
		net.AddNode(fmt.Sprintf("n%d", i), 0.01)
	}
	for i := 1; i < n; i++ {
		for k := 0; k < degree; k++ {
			j := rng.Intn(i)
			net.Connect(i, j, 0.5+rng.Float64())
		}
	}
	net.ConnectAmbient(0, 1)
	return net
}

// TestCholeskyFillFallback: when the predicted factor fill blows past
// CholeskyMaxFill — here a random expander, the worst case for a bandwidth
// ordering — Compile must land on the CG backend rather than failing or
// factoring a near-dense L.
func TestCholeskyFillFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	net := expanderNetwork(rng, 2048, 8) // ~77× predicted fill, well past the cap
	// Confirm the premise: the direct backend itself rejects at this cap.
	if _, err := net.CompileWith(linalg.CholeskyBackend{MaxFillRatio: CholeskyMaxFill}); err == nil {
		t.Fatal("expected the expander to exceed the fill cap")
	}
	s, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if s.Backend() != "sparse" {
		t.Fatalf("auto path on a high-fill network: %q, want sparse (CG fallback)", s.Backend())
	}
	// And the fallback must still solve.
	p := randomPower(rng, net.N())
	temps := s.SteadyState(p)
	if len(temps) != net.N() {
		t.Fatalf("steady state length %d", len(temps))
	}
}
