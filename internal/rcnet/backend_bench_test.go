package rcnet

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// Benchmarks comparing the dense-LU and sparse-CG backends across network
// sizes (DESIGN.md §4.2). The networks are floorplan-shaped grids from the
// parity tests: ~5 nonzeros per row, silicon + stiff oil boundary nodes.
//
//	go test ./internal/rcnet -bench Backend -benchtime 2x
//
// The headline numbers (steady state at ≥1000 nodes) are recorded in
// CHANGES.md.

// benchSizes maps a label to grid dimensions; node count is 2·nx·ny. The
// big sizes are the reference-grid scale the AMD ordering unlocked for the
// direct backend (PR 4's dense-bitset minimum degree was capped at 4096
// unknowns); dense rows are excluded there — an O(n²) matrix would need
// 2-34 GB — as is the CG row at N=65536 (minutes per steady solve).
var benchSizes = []struct {
	name   string
	nx, ny int
	big    bool
}{
	{"N=128", 8, 8, false},
	{"N=512", 16, 16, false},
	{"N=1058", 23, 23, false},
	{"N=2048", 32, 32, false},
	{"N=16384", 64, 128, true},
	{"N=65536", 128, 256, true},
}

// benchBackends lists the explicit backends plus "auto" (nil backend =
// whatever Compile selects — the row that tracks the production path's
// trajectory across PRs).
var benchBackends = []struct {
	name    string
	backend linalg.Backend
}{
	{"dense", linalg.DenseBackend{}},
	{"sparse", linalg.SparseBackend{}},
	{"cholesky", linalg.CholeskyBackend{}},
	{"auto", nil},
}

// benchSkip reports backend rows excluded at a size (see benchSizes).
func benchSkip(szBig bool, n int, backend string) bool {
	if !szBig {
		return false
	}
	if backend == "dense" {
		return true
	}
	return backend == "sparse" && n > 20000
}

// benchCompile compiles onto the row's backend ("auto" = Compile).
func benchCompile(net *Network, backend linalg.Backend) (*Solver, error) {
	if backend == nil {
		return net.Compile()
	}
	return net.CompileWith(backend)
}

func BenchmarkBackendCompile(b *testing.B) {
	for _, sz := range benchSizes {
		net := gridNetwork(rand.New(rand.NewSource(1)), sz.nx, sz.ny)
		for _, bk := range benchBackends {
			if benchSkip(sz.big, net.N(), bk.name) {
				continue
			}
			b.Run(fmt.Sprintf("%s/%s", bk.name, sz.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := benchCompile(net, bk.backend); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBackendSteadyState measures the full time-to-answer for one
// steady state: assembly/factorization plus the solve. This is the cost a
// scenario server pays per new network configuration, and the headline
// dense-vs-sparse comparison: dense pays O(n³) to factor, sparse O(nnz) per
// CG iteration.
func BenchmarkBackendSteadyState(b *testing.B) {
	for _, sz := range benchSizes {
		rng := rand.New(rand.NewSource(2))
		net := gridNetwork(rng, sz.nx, sz.ny)
		p := randomPower(rng, net.N())
		for _, bk := range benchBackends {
			if benchSkip(sz.big, net.N(), bk.name) {
				continue
			}
			b.Run(fmt.Sprintf("%s/%s", bk.name, sz.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s, err := benchCompile(net, bk.backend)
					if err != nil {
						b.Fatal(err)
					}
					s.SteadyState(p)
				}
			})
		}
	}
}

// BenchmarkBackendSteadyStateSolveOnly measures repeated solves against one
// compiled solver (factorization amortized away): dense back-substitution is
// O(n²), sparse warm-started CG O(nnz·iters).
func BenchmarkBackendSteadyStateSolveOnly(b *testing.B) {
	for _, sz := range benchSizes {
		rng := rand.New(rand.NewSource(3))
		net := gridNetwork(rng, sz.nx, sz.ny)
		p := randomPower(rng, net.N())
		for _, bk := range benchBackends {
			if benchSkip(sz.big, net.N(), bk.name) {
				continue
			}
			s, err := benchCompile(net, bk.backend)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%s", bk.name, sz.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s.SteadyState(p)
				}
			})
		}
	}
}

// BenchmarkBackendTransientBE measures a 100-step fixed-dt backward-Euler
// transient (operator shift cached after the first step).
func BenchmarkBackendTransientBE(b *testing.B) {
	for _, sz := range benchSizes {
		rng := rand.New(rand.NewSource(4))
		net := gridNetwork(rng, sz.nx, sz.ny)
		p := randomPower(rng, net.N())
		for _, bk := range benchBackends {
			if benchSkip(sz.big, net.N(), bk.name) {
				continue
			}
			s, err := benchCompile(net, bk.backend)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%s", bk.name, sz.name), func(b *testing.B) {
				temp := s.AmbientVector()
				// Warm the (C/dt + A) factor: the row measures cached-factor
				// stepping, not the once-per-dt factorization.
				if err := s.TransientBE(temp, p, 1e-3, 1e-3); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := s.TransientBE(temp, p, 0.1, 1e-3); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTransientBatch measures lockstep trace replay throughput: 16
// independent 100-step replays on a ~1000-node sparse-backed network, as
// one 16-wide group and as 16 width-1 groups.
func BenchmarkTransientBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	net := gridNetwork(rng, 23, 23)
	s, err := net.Compile()
	if err != nil {
		b.Fatal(err)
	}
	const jobs = 16
	powers := make([][]float64, jobs)
	for j := range powers {
		powers[j] = randomPower(rng, net.N())
	}
	mkJobs := func() []Job {
		out := make([]Job, jobs)
		for j := range out {
			p := powers[j]
			out[j] = Job{
				Temp:  s.AmbientVector(),
				Power: func(_ float64, dst []float64) error { copy(dst, p); return nil },
			}
		}
		return out
	}
	w := Window{Duration: 0.1, Step: 1e-3}
	for _, width := range []int{1, jobs} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				all := mkJobs()
				for off := 0; off < jobs; off += width {
					for _, err := range s.Replay(w, all[off:off+width]) {
						if err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// BenchmarkBackendReducedStream measures one streaming backward-Euler step
// of a ReducedSession on few-input grids — the per-user serving regime
// model-order reduction exists for: a handful of power-input nodes on a
// large network, state kept in reduced coordinates, each step one order²
// matvec independent of N. Compare against the cholesky/auto rows of
// BenchmarkBackendTransientBE (full-space stepping, O(factor nnz) per
// step): the reduced step is flat across sizes while the sparse step grows
// with N. The order metric reports the realized basis size after deflation.
func BenchmarkBackendReducedStream(b *testing.B) {
	for _, sz := range benchSizes {
		if sz.nx*sz.ny*2 > 20000 {
			// Basis construction at N=65536 pays minutes of Arnoldi sweeps;
			// the scaling story is already visible at N=16384.
			continue
		}
		rng := rand.New(rand.NewSource(6))
		net := gridNetwork(rng, sz.nx, sz.ny)
		n := net.N()
		const nin = 12
		inputs := make([]int, nin)
		for i := range inputs {
			inputs[i] = i * n / nin
		}
		s, err := net.CompileReduced(ReducedSpec{Inputs: inputs, Order: 104})
		if err != nil {
			b.Fatal(err)
		}
		if s.Backend() != "reduced" {
			b.Fatalf("backend %q at %s, want reduced", s.Backend(), sz.name)
		}
		power := make([]float64, n)
		for _, i := range inputs {
			power[i] = 1 + rng.Float64()
		}
		b.Run(sz.name, func(b *testing.B) {
			rs, err := s.NewReducedSession(1e-3)
			if err != nil {
				b.Fatal(err)
			}
			if err := rs.Start(s.SteadyState(power)); err != nil {
				b.Fatal(err)
			}
			scaled := make([]float64, n)
			for i, p := range power {
				scaled[i] = 1.3 * p
			}
			if err := rs.SetPower(scaled); err != nil {
				b.Fatal(err)
			}
			// Take the first step before the timer: it always runs the
			// O(n·order) sampled exactness check, which at short benchtimes
			// would swamp the steady-state matvec the row measures (the
			// TransientBE rows warm their factor for the same reason).
			if err := rs.Step(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rs.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if !rs.Reduced() {
				b.Fatal("session tripped onto the full backend mid-benchmark")
			}
			b.ReportMetric(float64(rs.Order()), "order")
		})
	}
}
