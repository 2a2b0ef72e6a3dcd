package rcnet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// gridNetwork builds a floorplan-shaped RC network: an nx×ny silicon grid
// with 4-neighbor lateral conductances, each cell tied to a per-cell oil
// boundary node (small capacitance — the stiff part), and the oil nodes tied
// to ambient. Conductances and capacitances are randomized within physical
// ranges so the parity property is exercised across many system shapes.
func gridNetwork(rng *rand.Rand, nx, ny int) *Network {
	n := New(300 + 20*rng.Float64())
	si := make([]int, nx*ny)
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			si[iy*nx+ix] = n.AddNode(fmt.Sprintf("si:%d_%d", ix, iy), 0.01+0.05*rng.Float64())
		}
	}
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			c := si[iy*nx+ix]
			if ix+1 < nx {
				n.Connect(c, si[iy*nx+ix+1], 0.5+2*rng.Float64())
			}
			if iy+1 < ny {
				n.Connect(c, si[(iy+1)*nx+ix], 0.5+2*rng.Float64())
			}
		}
	}
	for i, c := range si {
		oil := n.AddNode(fmt.Sprintf("oil:%d", i), 1e-4+1e-3*rng.Float64())
		n.Connect(c, oil, 0.2+rng.Float64())
		n.ConnectAmbient(oil, 0.1+rng.Float64())
	}
	return n
}

func randomPower(rng *rand.Rand, n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		if rng.Float64() < 0.3 {
			p[i] = 5 * rng.Float64()
		}
	}
	return p
}

// ladderNetwork builds a small random network of n nodes: each node ties to
// a random earlier one, node 0 and a random subset reach ambient, and
// capacitances span four decades so the backward-Euler system is stiff.
// These sizes (n ≤ 8) are the ones whose arithmetic moved from dense LU to
// the sparse LDLᵀ factor.
func ladderNetwork(rng *rand.Rand, n int) *Network {
	net := New(300 + 20*rng.Float64())
	for i := 0; i < n; i++ {
		net.AddNode(fmt.Sprintf("n%d", i), math.Pow(10, -3+4*rng.Float64()))
	}
	for i := 1; i < n; i++ {
		net.Connect(i, rng.Intn(i), 0.05+2*rng.Float64())
	}
	net.ConnectAmbient(0, 0.1+rng.Float64())
	for i := 1; i < n; i++ {
		if rng.Float64() < 0.3 {
			net.ConnectAmbient(i, 0.1+rng.Float64())
		}
	}
	return net
}

// luOracle is the dense reference for a network: partial-pivot LU of the
// assembled conductance matrix and of each backward-Euler matrix, fed the
// right-hand sides the Solver builds.
type luOracle struct {
	net  *Network
	a    *linalg.Matrix
	lu   *linalg.LU
	beDt float64
	be   *linalg.LU
}

func newLUOracle(t *testing.T, net *Network) *luOracle {
	t.Helper()
	sz := net.N()
	a := linalg.NewMatrix(sz, sz)
	for _, e := range net.assemble() {
		a.Add(e.I, e.J, e.V)
	}
	lu, err := linalg.FactorLU(a)
	if err != nil {
		t.Fatalf("dense LU: %v", err)
	}
	return &luOracle{net: net, a: a, lu: lu}
}

// rhs builds P + G_amb·T_amb.
func (o *luOracle) rhs(power []float64) []float64 {
	b := make([]float64, len(power))
	for i := range b {
		b[i] = power[i] + o.net.ambG[i]*o.net.ambient
	}
	return b
}

func (o *luOracle) SteadyState(power []float64) []float64 { return o.lu.Solve(o.rhs(power)) }

func (o *luOracle) AmbientVector() []float64 {
	t := make([]float64, o.net.N())
	linalg.Fill(t, o.net.ambient)
	return t
}

// StepBE advances temp by one backward-Euler step: (C/dt + A)·T⁺ =
// P + G_amb·T_amb + C/dt·T.
func (o *luOracle) StepBE(temp, power []float64, dt float64) {
	if o.be == nil || o.beDt != dt {
		m := o.a.Clone()
		for i, c := range o.net.cap {
			m.Add(i, i, c/dt)
		}
		be, err := linalg.FactorLU(m)
		if err != nil {
			panic(err)
		}
		o.be, o.beDt = be, dt
	}
	b := o.rhs(power)
	for i, c := range o.net.cap {
		b[i] += c / dt * temp[i]
	}
	o.be.SolveInto(temp, b)
}

// TransientBE mirrors Solver.TransientBE's step sequence.
func (o *luOracle) TransientBE(temp, power []float64, duration, dt float64) {
	for t := 0.0; t < duration-1e-15*duration; {
		step := dt
		if rem := duration - t; rem < dt-1e-9*dt {
			step = rem
		}
		o.StepBE(temp, power, step)
		t += step
	}
}

// replay mirrors Solver.Replay's step sequence for one job: record at t = 0
// and after every step, power filled at each step's start.
func (o *luOracle) replay(temp []float64, schedule func(k int, power []float64), steps int, step float64) []sample {
	power := make([]float64, len(temp))
	var out []sample
	t := 0.0
	for k := 0; ; k++ {
		out = append(out, sample{Time: t, Temp: append([]float64(nil), temp...)})
		if k == steps {
			return out
		}
		schedule(k, power)
		o.StepBE(temp, power, step)
		t += step
	}
}

// compileWithOracle compiles a network and builds its dense LU oracle.
func compileWithOracle(t *testing.T, n *Network) (*Solver, *luOracle) {
	t.Helper()
	s, err := n.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return s, newLUOracle(t, n)
}

// riseTol scales a tolerance by the temperature rise above ambient (at
// least 1 K); relTol makes it relative to the oracle's temperature.
func riseTol(tol, want, ambient float64) float64 {
	return tol * math.Max(1, math.Abs(want-ambient))
}

func relTol(tol, want, _ float64) float64 { return tol * math.Abs(want) }

// TestBackendParitySteadyState: the factor's steady state must match the
// dense LU oracle on random floorplan-shaped networks to 1e-9 of the
// temperature rise, and on the n ≤ 8 networks to relative 1e-12.
func TestBackendParitySteadyState(t *testing.T) {
	check := func(name string, net *Network, p []float64, tol float64, scale func(tol, want, ambient float64) float64) {
		t.Helper()
		s, oracle := compileWithOracle(t, net)
		td := oracle.SteadyState(p)
		ts := s.SteadyState(p)
		for i := range td {
			if d := math.Abs(td[i] - ts[i]); d > scale(tol, td[i], net.Ambient()) {
				t.Fatalf("%s: steady node %d dense %.15g vs factor %.15g (Δ=%g)", name, i, td[i], ts[i], d)
			}
		}
	}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nx, ny := 3+rng.Intn(6), 3+rng.Intn(6)
		net := gridNetwork(rng, nx, ny)
		check(fmt.Sprintf("seed %d (%dx%d)", seed, nx, ny), net, randomPower(rng, net.N()), 1e-9, riseTol)
	}
	for _, n := range []int{1, 2, 5, 8} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(500 + seed))
			net := ladderNetwork(rng, n)
			p := randomPower(rng, n)
			p[rng.Intn(n)] += 1 + 10*rng.Float64()
			check(fmt.Sprintf("n=%d seed %d", n, seed), net, p, 1e-12, relTol)
		}
	}
}

// TestBackendParityTransientBE: fixed-step backward-Euler transients must
// track the dense oracle, including a step-size change mid-run (exercising
// the cached shifted factor): to 1e-9 of the rise on grid networks, and to
// relative 1e-12 over 100 steps on the n ≤ 8 networks.
func TestBackendParityTransientBE(t *testing.T) {
	check := func(name string, net *Network, p []float64, legs []struct{ dur, dt float64 }, tol float64, scale func(tol, want, ambient float64) float64) {
		t.Helper()
		s, oracle := compileWithOracle(t, net)
		td := oracle.AmbientVector()
		ts := s.AmbientVector()
		for _, leg := range legs {
			oracle.TransientBE(td, p, leg.dur, leg.dt)
			if err := s.TransientBE(ts, p, leg.dur, leg.dt); err != nil {
				t.Fatal(err)
			}
		}
		for i := range td {
			if d := math.Abs(td[i] - ts[i]); d > scale(tol, td[i], net.Ambient()) {
				t.Fatalf("%s: BE node %d dense %.15g vs factor %.15g (Δ=%g)", name, i, td[i], ts[i], d)
			}
		}
	}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		net := gridNetwork(rng, 4, 4)
		legs := []struct{ dur, dt float64 }{{0.5, 0.01}, {0.2, 0.004}}
		check(fmt.Sprintf("seed %d", seed), net, randomPower(rng, net.N()), legs, 1e-9, riseTol)
	}
	for _, n := range []int{1, 2, 5, 8} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(600 + seed))
			net := ladderNetwork(rng, n)
			p := randomPower(rng, n)
			p[rng.Intn(n)] += 1 + 10*rng.Float64()
			legs := []struct{ dur, dt float64 }{{0.5, 0.01}, {0.5, 0.01}} // 100 steps
			check(fmt.Sprintf("n=%d seed %d", n, seed), net, p, legs, 1e-12, relTol)
		}
	}
}

// TestBackendParityTrace: trace-driven replay (time-varying power) through
// Solver.Replay agrees with the dense oracle.
func TestBackendParityTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := gridNetwork(rng, 5, 4)
	s, oracle := compileWithOracle(t, net)
	p1 := randomPower(rng, net.N())
	p2 := randomPower(rng, net.N())
	schedule := func(k int, p []float64) {
		src := p1
		if k >= 5 {
			src = p2
		}
		copy(p, src)
	}
	sd := oracle.replay(oracle.AmbientVector(), schedule, 10, 0.05)
	ss, err := replayTrace(s, s.AmbientVector(), schedule, 10, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(sd) != len(ss) {
		t.Fatalf("sample counts differ: %d vs %d", len(sd), len(ss))
	}
	for k := range sd {
		if sd[k].Time != ss[k].Time {
			t.Fatalf("sample %d: time %v vs %v", k, sd[k].Time, ss[k].Time)
		}
		for i := range sd[k].Temp {
			if d := math.Abs(sd[k].Temp[i] - ss[k].Temp[i]); d > 1e-9 {
				t.Fatalf("sample %d node %d: dense %.15g vs factor %.15g", k, i, sd[k].Temp[i], ss[k].Temp[i])
			}
		}
	}
}

// TestTransientBatchMatchesSerial: a lockstep group must record bit-for-bit
// the same samples as each job replayed alone, on the solver Compile picks.
func TestTransientBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := gridNetwork(rng, 6, 6)
	t.Run("auto", func(t *testing.T) {
		s, err := net.Compile()
		if err != nil {
			t.Fatal(err)
		}
		const jobs = 6
		powers := make([][]float64, jobs)
		for j := range powers {
			powers[j] = randomPower(rng, net.N())
		}
		mkJobs := func() []traceJob {
			out := make([]traceJob, jobs)
			for j := range out {
				p := powers[j]
				out[j] = traceJob{
					Temp:     s.AmbientVector(),
					Schedule: func(_ int, dst []float64) { copy(dst, p) },
					Steps:    10,
					Step:     0.03,
				}
			}
			return out
		}
		serial := mkJobs()
		want := make([][]sample, jobs)
		for j := range serial {
			w, err := replayTrace(s, serial[j].Temp, serial[j].Schedule, serial[j].Steps, serial[j].Step)
			if err != nil {
				t.Fatal(err)
			}
			want[j] = w
		}
		got, errs := replayTraces(s, mkJobs())
		for j := range want {
			if errs[j] != nil {
				t.Fatalf("job %d: %v", j, errs[j])
			}
			if len(got[j]) != len(want[j]) {
				t.Fatalf("job %d: %d samples vs %d", j, len(got[j]), len(want[j]))
			}
			for k := range want[j] {
				for i := range want[j][k].Temp {
					if got[j][k].Temp[i] != want[j][k].Temp[i] {
						t.Fatalf("job %d sample %d node %d: batch %.17g vs serial %.17g",
							j, k, i, got[j][k].Temp[i], want[j][k].Temp[i])
					}
				}
			}
		}
	})
}

// TestTransientBatchReportsJobError: a bad job must surface its own error
// while the good jobs still complete.
func TestTransientBatchReportsJobError(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := gridNetwork(rng, 3, 3)
	s, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	p := randomPower(rng, net.N())
	good := traceJob{
		Temp:     s.AmbientVector(),
		Schedule: func(_ int, dst []float64) { copy(dst, p) },
		Steps:    5,
		Step:     0.02,
	}
	bad := good
	bad.Temp = make([]float64, 1) // wrong length
	res, errs := replayTraces(s, []traceJob{good, bad})
	if errs[0] != nil || res[0] == nil {
		t.Fatalf("good job should still have produced samples (err %v)", errs[0])
	}
	if errs[1] == nil {
		t.Fatal("expected an error from the malformed job")
	}
	if res[1] != nil {
		t.Fatal("bad job should have no samples")
	}
}
