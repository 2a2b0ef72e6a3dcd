package rcnet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/linalg"
)

// Tests for the factor at the network level: parity against the dense LU
// oracle on random floorplan-shaped SPD networks, the factor-cache contract
// across step sizes, the allocation gate on the stepping hot path, and the
// fill refusal.

// TestCholeskyParitySteadyState: on random floorplan-shaped networks the
// factor's steady state must match the dense LU oracle to 1e-9 relative
// (the acceptance bar — both are direct solves).
func TestCholeskyParitySteadyState(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		nx, ny := 3+rng.Intn(7), 3+rng.Intn(7)
		net := gridNetwork(rng, nx, ny)
		chol, dense := compileWithOracle(t, net)
		p := randomPower(rng, net.N())
		td := dense.SteadyState(p)
		tc := chol.SteadyState(p)
		for i := range td {
			rise := math.Max(1, td[i]-net.Ambient())
			if d := math.Abs(td[i] - tc[i]); d > 1e-9*rise {
				t.Fatalf("seed %d (%dx%d): node %d dense %.15g vs cholesky %.15g (Δ=%g)",
					seed, nx, ny, i, td[i], tc[i], d)
			}
		}
	}
}

// TestCholeskyParityTransientBE: fixed-step backward-Euler transients on the
// factor must track the dense oracle to 1e-9 through step-size changes
// (both re-derive the shifted matrix).
func TestCholeskyParityTransientBE(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(400 + seed))
		net := gridNetwork(rng, 5, 4)
		chol, dense := compileWithOracle(t, net)
		p := randomPower(rng, net.N())
		td := dense.AmbientVector()
		tc := chol.AmbientVector()
		for _, leg := range []struct{ dur, dt float64 }{{0.5, 0.01}, {0.2, 0.004}} {
			dense.TransientBE(td, p, leg.dur, leg.dt)
			if err := chol.TransientBE(tc, p, leg.dur, leg.dt); err != nil {
				t.Fatal(err)
			}
		}
		for i := range td {
			if d := math.Abs(td[i] - tc[i]); d > 1e-9*math.Max(1, math.Abs(td[i]-net.Ambient())) {
				t.Fatalf("seed %d: node %d dense %.15g vs cholesky %.15g (Δ=%g)", seed, i, td[i], tc[i], d)
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
	base := s.Stats()
	if base.Factorizations != 1 {
		t.Fatalf("after compile: %d factorizations, want 1 (the eager conductance factor)", base.Factorizations)
	}
	p := randomPower(rng, net.N())
	temp := s.AmbientVector()
	const dt1, dt2 = 1e-3, 2e-3
	steps := []float64{dt1, dt1, dt1, dt2, dt2, dt1, dt2, dt1}
	for i, dt := range steps {
		if err := s.StepBE(temp, p, dt); err != nil {
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
	if st.StepSolveNanos <= 0 {
		t.Fatalf("step solve time not recorded")
	}

	// A second stepping session at an already-cached dt must reuse, not
	// re-factor.
	se2 := s.newBatchSession(1)
	temp2 := s.AmbientVector()
	if err := se2.step1(temp2, p, dt1); err != nil {
		t.Fatal(err)
	}
	st2 := s.Stats()
	if st2.Factorizations != st.Factorizations {
		t.Fatalf("second session re-factored: %d → %d", st.Factorizations, st2.Factorizations)
	}
	if st2.FactorReuses != st.FactorReuses+1 {
		t.Fatalf("second session did not hit the factor cache")
	}

	// TransientBE factors one BE matrix when dt divides the duration, even
	// where the summed steps fall a few ulps short of it, and a second
	// only for a real remainder.
	for _, c := range []struct {
		duration, dt  float64
		steps, factor int64
	}{
		{0.2, 1e-3, 200, 1}, {1, 1e-3, 1000, 1}, {0.5, 1e-3, 500, 1},
		{0.1, 1e-4, 1000, 1}, {1.5e-3, 1e-3, 2, 2},
	} {
		fresh, err := net.Compile()
		if err != nil {
			t.Fatal(err)
		}
		before := fresh.Stats()
		if err := fresh.TransientBE(fresh.AmbientVector(), p, c.duration, c.dt); err != nil {
			t.Fatal(err)
		}
		after := fresh.Stats()
		if got := after.Factorizations - before.Factorizations; got != c.factor {
			t.Errorf("TransientBE(%g, %g): %d BE factorizations, want %d", c.duration, c.dt, got, c.factor)
		}
		if got := after.DirectSteps - before.DirectSteps; got != c.steps {
			t.Errorf("TransientBE(%g, %g): %d steps, want %d", c.duration, c.dt, got, c.steps)
		}
	}
}

// TestStepBEAllocationFree gates the stepping hot path at zero allocations
// per step on the supernodal Cholesky solver (after the first step has
// grown workspaces and factored the backward-Euler matrix). This is the regression fence for the transient
// throughput work: a stray per-step allocation shows up here before it shows
// up in a benchmark.
func TestStepBEAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	net := gridNetwork(rng, 6, 6)
	t.Run("cholesky", func(t *testing.T) {
		s, err := net.Compile()
		if err != nil {
			t.Fatal(err)
		}
		p := randomPower(rng, net.N())
		temp := s.AmbientVector()
		if err := s.StepBE(temp, p, 1e-3); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := s.StepBE(temp, p, 1e-3); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("StepBE allocates %v times per step, want 0", allocs)
		}
	})
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
	temp := s.AmbientVector()
	want := append([]float64(nil), temp...)
	for _, dt := range []float64{0, -1e-3, math.NaN(), math.Inf(1)} {
		if err := s.StepBE(temp, p, dt); err == nil {
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

// TestCholeskyHintSurfacesSingular: a floating island in a grid network
// must be rejected at Compile by the ground check, which names the floating
// node, before the factorization could meet its zero pivot.
func TestCholeskyHintSurfacesSingular(t *testing.T) {
	net := gridNetwork(rand.New(rand.NewSource(8)), 4, 4)
	net.AddNode("island", 1)
	_, err := net.Compile()
	if err == nil || !strings.Contains(err.Error(), `floating island at node "island"`) {
		t.Fatalf("got %v, want the floating-island error naming the node", err)
	}
}

// TestCholeskySteadyBitStable: two independently compiled solvers of the
// same network must produce bitwise-identical steady states (the ordering,
// assembly and factorization are all deterministic).
func TestCholeskySteadyBitStable(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	net := gridNetwork(rng, 7, 5)
	p := randomPower(rng, net.N())
	s1, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := net.Compile()
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

// TestCholeskyFillRefused: when the predicted factor fill blows past
// CholeskyMaxFill — here a random expander, the worst case for a
// fill-reducing ordering — Compile must refuse with linalg.ErrCholeskyFill
// rather than factor a near-dense L.
func TestCholeskyFillRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	net := expanderNetwork(rng, 2048, 8) // ~43× predicted fill, past the cap
	s, err := net.Compile()
	if !errors.Is(err, linalg.ErrCholeskyFill) {
		t.Fatalf("got solver %v, err %v; want an error wrapping linalg.ErrCholeskyFill", s, err)
	}
}
