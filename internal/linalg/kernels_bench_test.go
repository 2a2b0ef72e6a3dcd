package linalg

import (
	"fmt"
	"math/rand"
	"testing"
)

// Benchmarks for the PR 6 register-blocked kernels: numeric refactorization
// throughput and the wide solve kernels against repeated narrow
// invocations. scripts/bench.sh runs these into BENCH_solver.json.

// benchGrid builds and factors a reference-style 5-point grid operator.
func benchGrid(b *testing.B, nx, ny int) (*CSR, *CholeskyOperator) {
	b.Helper()
	n, entries := gridEntries(nx, ny)
	m := NewCSR(n, entries)
	op, err := NewCholeskyOperator(m, 0)
	if err != nil {
		b.Fatal(err)
	}
	return m, op
}

// BenchmarkCholeskyFactorNumeric measures the numeric factorization alone
// (symbolic analysis amortized through Shift, exactly the backward-Euler
// refactorization path). The factorization is serial, so its rows should
// not move with GOMAXPROCS.
func BenchmarkCholeskyFactorNumeric(b *testing.B) {
	for _, sz := range []struct{ nx, ny int }{{64, 64}, {128, 128}} {
		_, op := benchGrid(b, sz.nx, sz.ny)
		shift := make([]float64, sz.nx*sz.ny)
		b.Run(fmt.Sprintf("N=%d", sz.nx*sz.ny), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := op.Shift(shift); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveKernelWidths solves the same 16 right-hand sides as four
// 4-wide kernel passes and as two 8-wide: the register-blocking payoff is
// the panel traversals each variant pays for.
func BenchmarkSolveKernelWidths(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	const nx, ny = 128, 128
	_, op := benchGrid(b, nx, ny)
	n := nx * ny
	const kk = 16
	bs := make([][]float64, kk)
	dst := make([][]float64, kk)
	for k := range bs {
		bs[k] = make([]float64, n)
		dst[k] = make([]float64, n)
		for i := range bs[k] {
			bs[k][i] = rng.NormFloat64()
		}
	}
	for _, width := range []int{4, 8} {
		ws := &Workspace{}
		op.solveChunk(bs[:width], dst[:width], ws) // warm scratch
		b.Run(fmt.Sprintf("%dx%d", kk/width, width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for k := 0; k < kk; k += width {
					op.solveChunk(bs[k:k+width], dst[k:k+width], ws)
				}
			}
		})
	}
}
