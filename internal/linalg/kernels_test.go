package linalg

import (
	"math/rand"
	"runtime"
	"testing"
)

// Tests for the PR 6 register-blocked kernels: bit-stable multicore
// factorization (within-panel splits included) and the per-width kernel
// counters.

// TestFactorBitIdenticalAcrossGOMAXPROCS: the numeric factorization must
// produce identical bits at every worker count — serial sweep, 2 workers, 4
// workers — on a grid big enough that the level schedule runs parallel AND
// at least one panel is split into within-panel column chunks.
func TestFactorBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	n, entries := gridEntries(96, 96) // 9216 unknowns, above parallelFactorMinN
	m := NewCSR(n, entries)
	sym := analyzeCholesky(m)
	split := 0
	for s := int32(0); int(s) < sym.Supernodes(); s++ {
		if sym.updateChunk(s) < int(sym.snStart[s+1]-sym.snStart[s]) {
			split++
		}
	}
	if split == 0 {
		t.Fatalf("no supernode splits on a 96×96 grid: the within-panel path is untested")
	}
	t.Logf("split panels: %d of %d", split, sym.Supernodes())

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var ref *cholFactor
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		f, err := factorSupernodal(m, sym)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = f
			continue
		}
		for i := range ref.vals {
			if f.vals[i] != ref.vals[i] {
				t.Fatalf("GOMAXPROCS=%d: panel value %d: %v vs %v", procs, i, f.vals[i], ref.vals[i])
			}
		}
		for i := range ref.d {
			if f.d[i] != ref.d[i] {
				t.Fatalf("GOMAXPROCS=%d: pivot %d: %v vs %v", procs, i, f.d[i], ref.d[i])
			}
		}
	}
}

// TestKernelSolveCounters: the workspace must attribute solves to the
// kernel widths the greedy dispatch actually used.
func TestKernelSolveCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 120
	op, err := (CholeskyBackend{}).Assemble(n, spdEntries(rng, n))
	if err != nil {
		t.Fatal(err)
	}
	b := make([][]float64, 31) // 16 + 8 + 4 + 3×1
	for k := range b {
		b[k] = make([]float64, n)
		for i := range b[k] {
			b[k][i] = rng.NormFloat64()
		}
	}
	ws := &Workspace{}
	if _, err := op.SolveBatch(b, nil, nil, ws); err != nil {
		t.Fatal(err)
	}
	want := [4]int64{3, 1, 1, 1}
	if ws.KernelSolves != want {
		t.Fatalf("kernel counters %v, want %v", ws.KernelSolves, want)
	}
}
