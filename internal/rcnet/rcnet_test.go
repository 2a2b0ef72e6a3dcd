package rcnet

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// singleRC builds the simplest network: one node, R to ambient, capacitance C.
func singleRC(ambient, r, c float64) (*Network, int) {
	n := New(ambient)
	i := n.AddNode("die", c)
	n.ConnectAmbientR(i, r)
	return n, i
}

func TestSteadyStateSingleRC(t *testing.T) {
	// T = T_amb + P·R.
	n, i := singleRC(300, 2.0, 1.0)
	s, err := n.Compile()
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, n.N())
	p[i] = 10
	temp := s.SteadyState(p)
	if math.Abs(temp[i]-320) > 1e-9 {
		t.Fatalf("T = %g, want 320", temp[i])
	}
}

func TestTransientSingleRCAnalytic(t *testing.T) {
	// Step response: T(t) = T_amb + P·R·(1 − exp(−t/RC)).
	r, c, p0 := 1.5, 2.0, 8.0
	n, i := singleRC(300, r, c)
	s, _ := n.Compile()
	p := []float64{p0}
	temp := s.AmbientVector()
	tau := r * c
	if _, err := s.Transient(temp, p, tau, TransientOptions{AbsTol: 1e-8}); err != nil {
		t.Fatal(err)
	}
	want := 300 + p0*r*(1-math.Exp(-1))
	if math.Abs(temp[i]-want) > 1e-5 {
		t.Fatalf("T(τ) = %g, want %g", temp[i], want)
	}
}

func TestBackwardEulerMatchesAnalytic(t *testing.T) {
	r, c, p0 := 1.0, 1.0, 5.0
	n, i := singleRC(300, r, c)
	s, _ := n.Compile()
	temp := s.AmbientVector()
	if err := s.TransientBE(temp, []float64{p0}, 3.0, 1e-4); err != nil {
		t.Fatal(err)
	}
	want := 300 + p0*(1-math.Exp(-3))
	if math.Abs(temp[i]-want) > 1e-3 {
		t.Fatalf("BE T = %g, want %g", temp[i], want)
	}
}

func TestBEStableOnStiffNetwork(t *testing.T) {
	// Tiny capacitance node coupled to a huge one: explicit methods need
	// microscopic steps, backward Euler must stay stable with big ones.
	n := New(300)
	small := n.AddNode("oil", 1e-4)
	big := n.AddNode("sink", 100)
	n.ConnectR(small, big, 0.01)
	n.ConnectAmbientR(big, 1.0)
	s, _ := n.Compile()
	temp := s.AmbientVector()
	p := make([]float64, 2)
	p[small] = 10
	if err := s.TransientBE(temp, p, 10, 0.5); err != nil {
		t.Fatal(err)
	}
	// No oscillation blow-up; temperatures remain physical.
	ss := s.SteadyState(p)
	for i := range temp {
		if temp[i] < 299 || temp[i] > ss[i]+1 {
			t.Fatalf("BE unstable: T[%d]=%g (steady %g)", i, temp[i], ss[i])
		}
	}
}

func TestTwoNodeLadderSteady(t *testing.T) {
	// die —R1— sink —R2— ambient with power at die:
	// T_die = T_amb + P(R1+R2), T_sink = T_amb + P·R2.
	n := New(318.15)
	die := n.AddNode("die", 0.35)
	sink := n.AddNode("sink", 88)
	n.ConnectR(die, sink, 0.05)
	n.ConnectAmbientR(sink, 0.3)
	s, _ := n.Compile()
	p := []float64{40, 0}
	temp := s.SteadyState(p)
	if math.Abs(temp[die]-(318.15+40*0.35)) > 1e-9 {
		t.Fatalf("T_die = %g", temp[die])
	}
	if math.Abs(temp[sink]-(318.15+40*0.3)) > 1e-9 {
		t.Fatalf("T_sink = %g", temp[sink])
	}
}

func TestFloatingIslandRejected(t *testing.T) {
	n := New(300)
	n.AddNode("a", 1)
	b := n.AddNode("b", 1)
	n.ConnectAmbientR(b, 1)
	// "a" has no connection at all → singular conductance matrix. The
	// ground check refuses it before the factorization and names the node.
	if _, err := n.Compile(); err == nil || !strings.Contains(err.Error(), `floating island at node "a"`) {
		t.Fatalf("got %v, want the floating-island error naming node a", err)
	}
}

func TestEnergyConservationSteady(t *testing.T) {
	// At steady state, total heat flow to ambient equals injected power.
	rng := rand.New(rand.NewSource(3))
	n := New(300)
	const sz = 12
	for i := 0; i < sz; i++ {
		n.AddNode(string(rune('a'+i)), 0.1+rng.Float64())
	}
	for i := 1; i < sz; i++ {
		n.ConnectR(i-1, i, 0.1+rng.Float64())
	}
	n.ConnectAmbientR(0, 0.5)
	n.ConnectAmbientR(sz-1, 0.7)
	s, err := n.Compile()
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, sz)
	var total float64
	for i := range p {
		p[i] = rng.Float64() * 5
		total += p[i]
	}
	temp := s.SteadyState(p)
	var out float64
	for _, q := range s.HeatFlowToAmbient(temp) {
		out += q
	}
	if math.Abs(out-total) > 1e-8*total {
		t.Fatalf("energy not conserved: in %g, out %g", total, out)
	}
}

func TestDominantTimeConstantSingleRC(t *testing.T) {
	n, _ := singleRC(300, 2.5, 4.0)
	s, _ := n.Compile()
	tau := s.DominantTimeConstant()
	if math.Abs(tau-10) > 1e-6 {
		t.Fatalf("τ = %g, want 10", tau)
	}
}

func TestDominantTimeConstantLadder(t *testing.T) {
	// Paper Fig. 7(a): with C_sink ≫ C_si the slow constant approaches
	// R_conv·C_sink.
	n := New(300)
	die := n.AddNode("die", 0.35)
	sink := n.AddNode("sink", 88.0)
	n.ConnectR(die, sink, 0.0125)
	n.ConnectAmbientR(sink, 1.0)
	s, _ := n.Compile()
	tau := s.DominantTimeConstant()
	if math.Abs(tau-88.0)/88.0 > 0.05 {
		t.Fatalf("τ = %g, want ≈ R_conv·C_sink = 88 s", tau)
	}
}

func TestTransientTraceRecordsSamples(t *testing.T) {
	n, i := singleRC(300, 1, 1)
	s, _ := n.Compile()
	temp := s.AmbientVector()
	// Pulse train: on for the first half, off after.
	samples, err := replayTrace(s, temp, func(k int, p []float64) {
		if k < 10 {
			p[i] = 4
		} else {
			p[i] = 0
		}
	}, 20, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 21 {
		t.Fatalf("got %d samples, want 21", len(samples))
	}
	if samples[0].Time != 0 || math.Abs(samples[20].Time-1.0) > 1e-12 {
		t.Fatalf("sample times wrong: %g .. %g", samples[0].Time, samples[20].Time)
	}
	// Peak at the power-off point, then decay.
	peak := samples[10].Temp[i]
	if peak <= samples[5].Temp[i] || samples[20].Temp[i] >= peak {
		t.Fatal("pulse response shape wrong")
	}
}

func TestConnectAccumulates(t *testing.T) {
	// Two parallel 2 K/W resistances = 1 K/W.
	n := New(300)
	a := n.AddNode("a", 1)
	b := n.AddNode("b", 1)
	n.ConnectR(a, b, 2)
	n.ConnectR(a, b, 2)
	n.ConnectAmbientR(b, 1e9) // weak tie to ground for solvability
	s, _ := n.Compile()
	// Check assembled conductance via steady state with power balance:
	// inject P at a, extract nothing; T_a - T_b = P·R_parallel.
	p := []float64{1, 0}
	temp := s.SteadyState(p)
	if math.Abs((temp[a]-temp[b])-1.0) > 1e-6 {
		t.Fatalf("parallel resistance wrong: ΔT = %g", temp[a]-temp[b])
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	n := New(300)
	a := n.AddNode("a", 1)
	for _, f := range []func(){
		func() { n.AddNode("a", 1) },       // duplicate
		func() { n.AddNode("b", 0) },       // zero capacitance
		func() { n.Connect(a, a, 1) },      // self loop
		func() { n.ConnectR(a, a, 0) },     // zero resistance
		func() { n.ConnectAmbient(a, -1) }, // negative conductance
		func() { n.ConnectAmbient(99, 1) }, // bad index
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: steady-state temperatures are always ≥ ambient for non-negative
// power (maximum principle for the discrete Laplacian), and monotone in
// power.
func TestSteadyStateMaximumPrinciple(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := New(300)
		sz := 3 + rng.Intn(10)
		for i := 0; i < sz; i++ {
			n.AddNode(string(rune('A'+i)), 0.1+rng.Float64())
		}
		// Random spanning connections to keep it connected.
		for i := 1; i < sz; i++ {
			n.ConnectR(rng.Intn(i), i, 0.05+rng.Float64())
		}
		n.ConnectAmbientR(rng.Intn(sz), 0.2+rng.Float64())
		s, err := n.Compile()
		if err != nil {
			return false
		}
		p := make([]float64, sz)
		for i := range p {
			p[i] = rng.Float64() * 10
		}
		temp := s.SteadyState(p)
		for _, v := range temp {
			if v < 300-1e-9 {
				return false
			}
		}
		// Doubling power doubles the rise above ambient (linearity).
		p2 := make([]float64, sz)
		for i := range p {
			p2[i] = 2 * p[i]
		}
		temp2 := s.SteadyState(p2)
		for i := range temp {
			if math.Abs((temp2[i]-300)-2*(temp[i]-300)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: transient solutions converge to the steady state.
func TestTransientConvergesToSteady(t *testing.T) {
	n := New(310)
	a := n.AddNode("a", 0.5)
	b := n.AddNode("b", 2.0)
	n.ConnectR(a, b, 0.4)
	n.ConnectAmbientR(b, 0.6)
	s, _ := n.Compile()
	p := []float64{7, 1}
	want := s.SteadyState(p)
	temp := s.AmbientVector()
	if err := s.TransientBE(temp, p, 100, 0.01); err != nil {
		t.Fatal(err)
	}
	for i := range temp {
		if math.Abs(temp[i]-want[i]) > 1e-4 {
			t.Fatalf("node %d: transient %g vs steady %g", i, temp[i], want[i])
		}
	}
}

func TestRK4AgreesWithBE(t *testing.T) {
	n := New(300)
	a := n.AddNode("a", 0.3)
	b := n.AddNode("b", 1.1)
	n.ConnectR(a, b, 0.5)
	n.ConnectAmbientR(b, 0.8)
	s, _ := n.Compile()
	p := []float64{5, 0}
	t1 := s.AmbientVector()
	t2 := s.AmbientVector()
	if _, err := s.Transient(t1, p, 0.7, TransientOptions{AbsTol: 1e-9}); err != nil {
		t.Fatal(err)
	}
	if err := s.TransientBE(t2, p, 0.7, 1e-5); err != nil {
		t.Fatal(err)
	}
	for i := range t1 {
		if math.Abs(t1[i]-t2[i]) > 5e-3 {
			t.Fatalf("integrators disagree at %d: %g vs %g", i, t1[i], t2[i])
		}
	}
	_ = a
	_ = b
}

// TestTransientMaxStepCapsSteps: TransientOptions.MaxStep is a step-size cap
// (the regression: it used to seed the initial step instead, letting the
// controller grow past it).
func TestTransientMaxStepCapsSteps(t *testing.T) {
	n, i := singleRC(300, 1.0, 1.0)
	s, _ := n.Compile()
	p := make([]float64, n.N())
	p[i] = 2
	temp := s.AmbientVector()
	st, err := s.Transient(temp, p, 2.0, TransientOptions{AbsTol: 10, MaxStep: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if st.LastStep > 0.1+1e-12 {
		t.Fatalf("last step %g exceeds MaxStep", st.LastStep)
	}
	if st.Accepted < 20 {
		t.Fatalf("accepted %d steps, want ≥ 20 for duration 2 s at MaxStep 0.1", st.Accepted)
	}
}
