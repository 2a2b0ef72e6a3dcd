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

// testBackend names one way to compile a network, for tests that run on
// several backends; name is the subtest name.
type testBackend struct {
	name    string
	compile func(*Network) (*Solver, error)
}

func withBackend(b linalg.Backend) func(*Network) (*Solver, error) {
	return func(n *Network) (*Solver, error) { return n.CompileWith(b) }
}

var (
	autoTB     = testBackend{"auto", (*Network).Compile}
	denseTB    = testBackend{"dense", withBackend(linalg.DenseBackend{})}
	choleskyTB = testBackend{"cholesky", withBackend(linalg.CholeskyBackend{})}
	cgTB       = testBackend{"cg", withBackend(linalg.SparseBackend{})}
)

func randomPower(rng *rand.Rand, n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		if rng.Float64() < 0.3 {
			p[i] = 5 * rng.Float64()
		}
	}
	return p
}

// compileBoth compiles one network onto both backends.
func compileBoth(t *testing.T, n *Network) (dense, sparse *Solver) {
	t.Helper()
	d, err := n.CompileWith(linalg.DenseBackend{})
	if err != nil {
		t.Fatalf("dense compile: %v", err)
	}
	s, err := n.CompileWith(linalg.SparseBackend{})
	if err != nil {
		t.Fatalf("sparse compile: %v", err)
	}
	return d, s
}

// TestBackendParitySteadyState: dense LU and sparse CG must agree on the
// steady state of random floorplan-shaped networks to tight tolerance. This
// is the refactor's safety net: the dense path is the oracle.
func TestBackendParitySteadyState(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nx, ny := 3+rng.Intn(6), 3+rng.Intn(6)
		net := gridNetwork(rng, nx, ny)
		dense, sparse := compileBoth(t, net)
		p := randomPower(rng, net.N())
		td := dense.SteadyState(p)
		ts := sparse.SteadyState(p)
		for i := range td {
			rise := math.Max(1, td[i]-net.Ambient())
			if d := math.Abs(td[i] - ts[i]); d > 1e-7*rise {
				t.Fatalf("seed %d (%dx%d): steady node %d dense %.12g vs sparse %.12g (Δ=%g)",
					seed, nx, ny, i, td[i], ts[i], d)
			}
		}
	}
}

// TestBackendParityTransientBE: fixed-step backward-Euler transients must
// track between backends, including a step-size change mid-run (exercising
// the cached shifted operator on both).
func TestBackendParityTransientBE(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		net := gridNetwork(rng, 4, 4)
		dense, sparse := compileBoth(t, net)
		p := randomPower(rng, net.N())
		td := dense.AmbientVector()
		ts := sparse.AmbientVector()
		for _, leg := range []struct{ dur, dt float64 }{{0.5, 0.01}, {0.2, 0.004}} {
			if err := dense.TransientBE(td, p, leg.dur, leg.dt); err != nil {
				t.Fatal(err)
			}
			if err := sparse.TransientBE(ts, p, leg.dur, leg.dt); err != nil {
				t.Fatal(err)
			}
		}
		for i := range td {
			if d := math.Abs(td[i] - ts[i]); d > 1e-5 {
				t.Fatalf("seed %d: BE node %d dense %.12g vs sparse %.12g (Δ=%g)", seed, i, td[i], ts[i], d)
			}
		}
	}
}

// TestBackendParityTrace: trace-driven replay (time-varying power) agrees
// between backends.
func TestBackendParityTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := gridNetwork(rng, 5, 4)
	dense, sparse := compileBoth(t, net)
	p1 := randomPower(rng, net.N())
	p2 := randomPower(rng, net.N())
	schedule := func(tm float64, p []float64) {
		src := p1
		if tm >= 0.25 {
			src = p2
		}
		copy(p, src)
	}
	td := dense.AmbientVector()
	ts := sparse.AmbientVector()
	sd, err := replayTrace(dense, td, schedule, 0.5, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := replayTrace(sparse, ts, schedule, 0.5, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(sd) != len(ss) {
		t.Fatalf("sample counts differ: %d vs %d", len(sd), len(ss))
	}
	for k := range sd {
		for i := range sd[k].Temp {
			if d := math.Abs(sd[k].Temp[i] - ss[k].Temp[i]); d > 1e-5 {
				t.Fatalf("sample %d node %d: dense %.12g vs sparse %.12g", k, i, sd[k].Temp[i], ss[k].Temp[i])
			}
		}
	}
}

// TestCompileSelectsBackendBySize: the automatic selection must route tiny
// networks to dense LU and everything floorplan-shaped (modest fill) to the
// sparse direct Cholesky path, with CompileWith forcing any backend.
func TestCompileSelectsBackendBySize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tiny := New(300)
	a := tiny.AddNode("a", 1)
	bn := tiny.AddNode("b", 1)
	tiny.Connect(a, bn, 2)
	tiny.ConnectAmbient(a, 1)
	s1, err := tiny.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if s1.Backend() != "dense" {
		t.Fatalf("tiny network compiled onto %q, want dense", s1.Backend())
	}
	small := gridNetwork(rng, 3, 3) // 18 nodes: already past DenseCutoff
	sSmall, err := small.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if sSmall.Backend() != "cholesky" {
		t.Fatalf("small network compiled onto %q, want cholesky", sSmall.Backend())
	}
	big := gridNetwork(rng, 10, 10) // 200 nodes
	s2, err := big.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if s2.Backend() != "cholesky" {
		t.Fatalf("big network compiled onto %q, want cholesky", s2.Backend())
	}
	for _, c := range []struct {
		tb   testBackend
		want string
	}{{denseTB, "dense"}, {choleskyTB, "cholesky"}, {cgTB, "sparse"}} {
		s, err := c.tb.compile(big)
		if err != nil {
			t.Fatalf("backend %s: %v", c.tb.name, err)
		}
		if s.Backend() != c.want {
			t.Fatalf("backend %s compiled onto %q, want %q", c.tb.name, s.Backend(), c.want)
		}
	}
}

// TestFloatingIslandRejectedBothBackends: the structural ground check must
// fire for both backends (the iterative backend cannot rely on a
// factorization failure).
func TestFloatingIslandRejectedBothBackends(t *testing.T) {
	for _, backend := range []linalg.Backend{linalg.DenseBackend{}, linalg.SparseBackend{}} {
		n := New(300)
		n.AddNode("a", 1)
		b := n.AddNode("b", 1)
		n.ConnectAmbientR(b, 1)
		if _, err := n.CompileWith(backend); err == nil {
			t.Fatalf("%s: expected floating-island error", backend.Name())
		}
	}
}

// TestTransientBatchMatchesSerial: a lockstep group must record bit-for-bit
// the same samples as each job replayed alone, on both the auto-selected
// (Cholesky) path and the CG path.
func TestTransientBatchMatchesSerial(t *testing.T) {
	for _, tb := range []testBackend{autoTB, cgTB} {
		t.Run(tb.name, func(t *testing.T) { testTransientBatchMatchesSerial(t, tb) })
	}
}

func testTransientBatchMatchesSerial(t *testing.T, tb testBackend) {
	rng := rand.New(rand.NewSource(9))
	net := gridNetwork(rng, 6, 6)
	s, err := tb.compile(net)
	if err != nil {
		t.Fatal(err)
	}
	want72 := "cholesky"
	if tb.name == cgTB.name {
		want72 = "sparse"
	}
	if s.Backend() != want72 {
		t.Fatalf("backend %s: compiled onto %q, want %q", tb.name, s.Backend(), want72)
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
				Temp:        s.AmbientVector(),
				Schedule:    func(_ float64, dst []float64) { copy(dst, p) },
				Duration:    0.3,
				SampleEvery: 0.03,
			}
		}
		return out
	}
	serial := mkJobs()
	want := make([][]sample, jobs)
	for j := range serial {
		w, err := replayTrace(s, serial[j].Temp, serial[j].Schedule, serial[j].Duration, serial[j].SampleEvery)
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
}

// TestTransientBatchReportsJobError: a bad job must surface its own error
// while the good jobs still complete.
func TestTransientBatchReportsJobError(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := gridNetwork(rng, 3, 3)
	s, err := net.CompileWith(linalg.SparseBackend{})
	if err != nil {
		t.Fatal(err)
	}
	p := randomPower(rng, net.N())
	good := traceJob{
		Temp:        s.AmbientVector(),
		Schedule:    func(_ float64, dst []float64) { copy(dst, p) },
		Duration:    0.1,
		SampleEvery: 0.02,
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
