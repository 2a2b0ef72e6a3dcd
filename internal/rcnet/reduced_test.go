package rcnet

import (
	"math"
	"testing"
)

// reducedTestNet builds a grid-shaped RC network with heterogeneous
// capacitances, boundary ambient legs and a few power-input nodes —
// structurally a miniature die stack.
func reducedTestNet(nx, ny int) (*Network, []int) {
	n := New(300)
	at := make([][]int, ny)
	for y := range at {
		at[y] = make([]int, nx)
		for x := range at[y] {
			at[y][x] = n.AddNode(gridName(x, y), 1e-3*(1+0.1*float64((x+y)%5)))
		}
	}
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			if x+1 < nx {
				n.Connect(at[y][x], at[y][x+1], 2.0)
			}
			if y+1 < ny {
				n.Connect(at[y][x], at[y+1][x], 1.5)
			}
			if x == 0 || y == 0 || x == nx-1 || y == ny-1 {
				n.ConnectAmbient(at[y][x], 0.4)
			}
		}
	}
	inputs := []int{at[0][0], at[ny/2][nx/2], at[ny-1][nx-1]}
	return n, inputs
}

func gridName(x, y int) string {
	return "n" + string(rune('a'+x)) + string(rune('a'+y))
}

func reducedTestPower(n *Network, inputs []int) []float64 {
	p := make([]float64, n.N())
	for k, i := range inputs {
		p[i] = 2.0 + float64(k)
	}
	return p
}

// The reduced solver must reproduce the full solver's steady state and
// transients on the inputs its basis was built from.
func TestCompileReducedMatchesFull(t *testing.T) {
	net, inputs := reducedTestNet(8, 8)
	full, err := net.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	red, err := net.CompileReduced(ReducedSpec{Inputs: inputs, Order: 24})
	if err != nil {
		t.Fatalf("CompileReduced: %v", err)
	}
	if red.Backend() != "reduced" {
		t.Fatalf("Backend() = %q, want reduced", red.Backend())
	}
	st := red.Stats()
	if st.ReducedOrder < 1 || st.ReducedOrder > 24 {
		t.Fatalf("ReducedOrder = %d, want 1..24", st.ReducedOrder)
	}
	if st.ReducedFallbacks != 0 {
		t.Fatalf("ReducedFallbacks = %d at compile, want 0", st.ReducedFallbacks)
	}

	power := reducedTestPower(net, inputs)
	sf := full.SteadyState(power)
	sr := red.SteadyState(power)
	for i := range sf {
		if math.Abs(sf[i]-sr[i]) > 1e-6 {
			t.Fatalf("steady[%d]: full %g, reduced %g", i, sf[i], sr[i])
		}
	}
	// The default spec (every node an input column) compiles onto the
	// reduced backend too and reproduces the full steady state.
	def, err := net.CompileReduced(ReducedSpec{})
	if err != nil {
		t.Fatalf("CompileReduced(default spec): %v", err)
	}
	if def.Backend() != "reduced" {
		t.Fatalf("default spec: Backend() = %q, want reduced", def.Backend())
	}
	sd := def.SteadyState(power)
	for i := range sf {
		if math.Abs(sf[i]-sd[i]) > 1e-6 {
			t.Fatalf("steady[%d]: full %g, default-spec reduced %g", i, sf[i], sd[i])
		}
	}

	tf, tr := full.AmbientVector(), red.AmbientVector()
	for step := 0; step < 50; step++ {
		if err := full.StepBE(tf, power, 1e-3); err != nil {
			t.Fatalf("full StepBE: %v", err)
		}
		if err := red.StepBE(tr, power, 1e-3); err != nil {
			t.Fatalf("reduced StepBE: %v", err)
		}
	}
	for i := range tf {
		if math.Abs(tf[i]-tr[i]) > 1e-4 {
			t.Fatalf("transient[%d]: full %g, reduced %g (Δ=%g)", i, tf[i], tr[i], tf[i]-tr[i])
		}
	}
	st = red.Stats()
	if st.ReducedSteps != 50 {
		t.Fatalf("ReducedSteps = %d, want 50", st.ReducedSteps)
	}
	if st.DirectSteps != 50 {
		t.Fatalf("DirectSteps = %d, want 50", st.DirectSteps)
	}
}

// An impossible residual gate must trip the automatic fallback: stepping
// continues through the full backend, the trip is counted, and the
// temperatures keep tracking the full solver.
func TestReducedResidualGateTripsFallback(t *testing.T) {
	net, inputs := reducedTestNet(8, 8)
	red, err := net.CompileReduced(ReducedSpec{Inputs: inputs, Order: 24, ResidualGate: 1e-300})
	if err != nil {
		t.Fatalf("CompileReduced: %v", err)
	}
	full, err := net.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	power := reducedTestPower(net, inputs)
	tf, tr := full.AmbientVector(), red.AmbientVector()
	for step := 0; step < 20; step++ {
		if err := full.StepBE(tf, power, 1e-3); err != nil {
			t.Fatalf("full StepBE: %v", err)
		}
		if err := red.StepBE(tr, power, 1e-3); err != nil {
			t.Fatalf("reduced StepBE: %v", err)
		}
	}
	st := red.Stats()
	if st.ReducedFallbacks != 1 {
		t.Fatalf("ReducedFallbacks = %d, want 1", st.ReducedFallbacks)
	}
	if st.ReducedSteps != 0 {
		// The very first step is sampled, trips the gate and is redone
		// through the full backend, so no reduced step ever lands.
		t.Fatalf("ReducedSteps = %d, want 0", st.ReducedSteps)
	}
	// Post-trip steps run the full backend: results must match the full
	// solver bitwise (same backend, same arithmetic).
	for i := range tf {
		if tf[i] != tr[i] {
			t.Fatalf("post-trip transient[%d]: full %g, tripped-reduced %g", i, tf[i], tr[i])
		}
	}
	// Steady solves after the trip also route to the full backend.
	sf, sr := full.SteadyState(power), red.SteadyState(power)
	for i := range sf {
		if math.Abs(sf[i]-sr[i]) > 1e-9 {
			t.Fatalf("post-trip steady[%d]: full %g, reduced %g", i, sf[i], sr[i])
		}
	}
}

// The batched stepping path must agree with width-1 stepping on the reduced
// backend.
func TestReducedBatchStepMatchesSerial(t *testing.T) {
	net, inputs := reducedTestNet(8, 8)
	red, err := net.CompileReduced(ReducedSpec{Inputs: inputs, Order: 24})
	if err != nil {
		t.Fatalf("CompileReduced: %v", err)
	}
	power := reducedTestPower(net, inputs)
	const k = 3
	serial := make([][]float64, k)
	batch := make([][]float64, k)
	powers := make([][]float64, k)
	for j := 0; j < k; j++ {
		serial[j] = red.AmbientVector()
		batch[j] = red.AmbientVector()
		p := make([]float64, len(power))
		for i := range p {
			p[i] = power[i] * float64(j+1)
		}
		powers[j] = p
	}
	bs := red.newBatchSession(k)
	errs := make([]error, k)
	for step := 0; step < 10; step++ {
		if err := bs.StepBE(batch, powers, 1e-3, errs); err != nil {
			t.Fatalf("batch StepBE: %v", err)
		}
	}
	for j := 0; j < k; j++ {
		for step := 0; step < 10; step++ {
			if err := red.StepBE(serial[j], powers[j], 1e-3); err != nil {
				t.Fatalf("serial StepBE: %v", err)
			}
		}
		for i := range serial[j] {
			if serial[j][i] != batch[j][i] {
				t.Fatalf("slot %d node %d: serial %g != batch %g", j, i, serial[j][i], batch[j][i])
			}
		}
	}
}

// CompileReduced on a network whose reduction cannot be built must fall
// back to the full backend at compile time and count it.
func TestCompileReducedConstructionFallback(t *testing.T) {
	net, _ := reducedTestNet(4, 4)
	// An out-of-range input node fails basis construction.
	s, err := net.CompileReduced(ReducedSpec{Inputs: []int{net.N() + 7}})
	if err != nil {
		t.Fatalf("CompileReduced fallback: %v", err)
	}
	if s.Backend() == "reduced" {
		t.Fatalf("Backend() = reduced, want a full backend after construction fallback")
	}
	if got := s.Stats().ReducedFallbacks; got != 1 {
		t.Fatalf("ReducedFallbacks = %d, want 1", got)
	}
}
