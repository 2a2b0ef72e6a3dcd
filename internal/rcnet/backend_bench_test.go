package rcnet

import (
	"fmt"
	"math/rand"
	"testing"
)

// Benchmarks of the compiled solver across network sizes (DESIGN.md §4.2).
// The networks are floorplan-shaped grids from the parity tests: ~5
// nonzeros per row, silicon + stiff oil boundary nodes. The N=16384 and
// N=65536 rows are reference-grid scale.
//
//	go test ./internal/rcnet -bench Backend -benchtime 2x
//
// Rows are named auto/N=…, the names BENCH_solver.json's history tracks
// for the production path.

// benchSizes maps a label to grid dimensions; node count is 2·nx·ny.
var benchSizes = []struct {
	name   string
	nx, ny int
}{
	{"N=128", 8, 8},
	{"N=512", 16, 16},
	{"N=1058", 23, 23},
	{"N=2048", 32, 32},
	{"N=16384", 64, 128},
	{"N=65536", 128, 256},
}

func BenchmarkBackendCompile(b *testing.B) {
	for _, sz := range benchSizes {
		net := gridNetwork(rand.New(rand.NewSource(1)), sz.nx, sz.ny)
		b.Run("auto/"+sz.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := net.Compile(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBackendSteadyState measures the full time-to-answer for one
// steady state: assembly/factorization plus the solve. This is the cost a
// scenario server pays per new network configuration.
func BenchmarkBackendSteadyState(b *testing.B) {
	for _, sz := range benchSizes {
		rng := rand.New(rand.NewSource(2))
		net := gridNetwork(rng, sz.nx, sz.ny)
		p := randomPower(rng, net.N())
		b.Run("auto/"+sz.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := net.Compile()
				if err != nil {
					b.Fatal(err)
				}
				s.SteadyState(p)
			}
		})
	}
}

// BenchmarkBackendSteadyStateSolveOnly measures repeated solves against one
// compiled solver (factorization amortized away): two triangular sweeps,
// ~2·nnz(L) flops.
func BenchmarkBackendSteadyStateSolveOnly(b *testing.B) {
	for _, sz := range benchSizes {
		rng := rand.New(rand.NewSource(3))
		net := gridNetwork(rng, sz.nx, sz.ny)
		p := randomPower(rng, net.N())
		s, err := net.Compile()
		if err != nil {
			b.Fatal(err)
		}
		b.Run("auto/"+sz.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.SteadyState(p)
			}
		})
	}
}

// BenchmarkBackendTransientBE measures a 100-step fixed-dt backward-Euler
// transient (backward-Euler factor cached after the first step).
func BenchmarkBackendTransientBE(b *testing.B) {
	for _, sz := range benchSizes {
		rng := rand.New(rand.NewSource(4))
		net := gridNetwork(rng, sz.nx, sz.ny)
		p := randomPower(rng, net.N())
		s, err := net.Compile()
		if err != nil {
			b.Fatal(err)
		}
		b.Run("auto/"+sz.name, func(b *testing.B) {
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

// BenchmarkTransientBatch measures lockstep trace replay throughput: 16
// independent 100-step replays on a ~1000-node network, as one 16-wide
// group (two 8-wide kernel passes per step) and as 16 width-1 groups.
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
				Power: fill(func(_ int, dst []float64) { copy(dst, p) }, 100),
			}
		}
		return out
	}
	for _, width := range []int{1, jobs} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				all := mkJobs()
				for off := 0; off < jobs; off += width {
					for _, err := range s.Replay(1e-3, all[off:off+width]) {
						if err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}
