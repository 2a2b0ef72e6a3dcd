package linalg

import (
	"math/rand"
	"testing"
)

// Parity and batch tests for the supernodal kernels against the retained
// PR 4 scalar kernel (same symbolic analysis, per-entry numeric phase) and
// the dense LU oracle.

// TestSupernodalMatchesScalarKernel: the blocked factorization and panel
// solves must agree with the scalar up-looking kernel on the same ordering
// to direct-solve accuracy, across shapes that exercise wide panels (grid),
// zero-fill chains (path) and a dense trailing supernode (clique).
func TestSupernodalMatchesScalarKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	type tc struct {
		name    string
		n       int
		entries []Coord
	}
	gn, ge := gridEntries(13, 11)
	cases := []tc{
		{"grid", gn, ge},
		{"path", 90, pathEntries(90)},
		{"clique", 40, cliqueEntries(40)},
		{"random", 150, spdEntries(rng, 150)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := NewCSR(c.n, c.entries)
			op, err := NewCholeskyOperator(m, 0)
			if err != nil {
				t.Fatal(err)
			}
			sf, err := factorScalarLDL(m, op.sym)
			if err != nil {
				t.Fatal(err)
			}
			b := make([]float64, c.n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			xs := sf.solveScalar(op.sym, b)
			xp, err := op.Solve(b, nil, nil, &Workspace{})
			if err != nil {
				t.Fatal(err)
			}
			if e := relErr(xs, xp); e > 1e-12 {
				t.Fatalf("panel solve diverges from scalar kernel by %g", e)
			}
		})
	}
}

// TestSupernodePartitionInvariants: the partition must tile the columns,
// respect the width cap, cover every true factor entry, and keep each
// relaxed panel's explicit-zero fraction within the amalgamation bound.
func TestSupernodePartitionInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 17, 120, 400} {
		m := NewCSR(n, spdEntries(rng, n))
		sym := analyzeCholesky(m)
		ns := sym.Supernodes()
		if sym.snStart[0] != 0 || int(sym.snStart[ns]) != n {
			t.Fatalf("n=%d: supernodes do not tile columns: %v", n, sym.snStart)
		}
		total := 0
		for s := 0; s < ns; s++ {
			c0 := int(sym.snStart[s])
			w := int(sym.snStart[s+1]) - c0
			if w <= 0 || w > maxPanelWidth {
				t.Fatalf("n=%d: supernode %d width %d", n, s, w)
			}
			nb := len(sym.rows[s])
			for q := 1; q < nb; q++ {
				if sym.rows[s][q] <= sym.rows[s][q-1] {
					t.Fatalf("n=%d: supernode %d rows not ascending", n, s)
				}
			}
			// Panel slots (strictly lower) vs the true column counts: the
			// panel must cover every true entry, and the explicit zeros
			// relaxation introduces must stay under the snRelax bound.
			panel := w*nb + w*(w-1)/2
			truth := 0
			for j := c0; j < c0+w; j++ {
				cnt := sym.colPtr[j+1] - sym.colPtr[j]
				if slots := (c0 + w - 1 - j) + nb; cnt > slots {
					t.Fatalf("n=%d: column %d has %d entries, panel offers %d slots", n, j, cnt, slots)
				}
				truth += cnt
			}
			if float64(panel-truth) > snRelax*float64(panel)+1e-9 {
				t.Fatalf("n=%d: supernode %d zero fraction %d/%d exceeds relax bound", n, s, panel-truth, panel)
			}
			total += panel
		}
		if total < sym.nnzL {
			t.Fatalf("n=%d: panel storage %d below true nnz %d", n, total, sym.nnzL)
		}
	}
}

// TestSolveBatchMatchesSequential: SolveBatch must agree with K successive
// Solve calls to the last bit, for every backend, every K in 1..17 — which
// exercises the 16-, 8-
// and 4-wide kernels and every ragged tail — plus widths past the lockstep
// group cap, warm starts included (CG).
func TestSolveBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n = 160
	entries := spdEntries(rng, n)
	widths := make([]int, 0, 19)
	for kk := 1; kk <= 17; kk++ {
		widths = append(widths, kk)
	}
	widths = append(widths, 40, 70)
	for _, bk := range []Backend{DenseBackend{}, CholeskyBackend{}, SparseBackend{}} {
		op, err := bk.Assemble(n, entries)
		if err != nil {
			t.Fatal(err)
		}
		for _, kk := range widths {
			b := make([][]float64, kk)
			x0 := make([][]float64, kk)
			for k := range b {
				b[k] = make([]float64, n)
				x0[k] = make([]float64, n)
				for i := range b[k] {
					b[k][i] = rng.NormFloat64()
					x0[k][i] = rng.NormFloat64() * 0.1
				}
			}
			seq := make([][]float64, kk)
			ws := &Workspace{}
			for k := range b {
				x, err := op.Solve(b[k], x0[k], nil, ws)
				if err != nil {
					t.Fatal(err)
				}
				seq[k] = x
			}
			got, err := op.SolveBatch(b, x0, nil, &Workspace{})
			if err != nil {
				t.Fatal(err)
			}
			for k := range seq {
				for i := range seq[k] {
					if got[k][i] != seq[k][i] {
						t.Fatalf("%s K=%d: column %d row %d: batch %v vs sequential %v",
							bk.Name(), kk, k, i, got[k][i], seq[k][i])
					}
				}
			}
		}
	}
}

// TestSolveBatchAllocationFree: the batched direct solve must not allocate
// once workspace and destination buffers exist — through the 4-, 8- and
// 16-wide kernels and the mixed-width tail dispatch.
func TestSolveBatchAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 300
	entries := spdEntries(rng, n)
	op, err := (CholeskyBackend{}).Assemble(n, entries)
	if err != nil {
		t.Fatal(err)
	}
	for _, kk := range []int{4, 8, 16, 23} {
		b := make([][]float64, kk)
		dst := make([][]float64, kk)
		for k := range b {
			b[k] = make([]float64, n)
			dst[k] = make([]float64, n)
			for i := range b[k] {
				b[k][i] = rng.NormFloat64()
			}
		}
		ws := &Workspace{}
		if _, err := op.SolveBatch(b, nil, dst, ws); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := op.SolveBatch(b, nil, dst, ws); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("K=%d: batched solve allocates %v times per run, want 0", kk, allocs)
		}
	}
}

// TestParallelFactorBitStable: the level-parallel factorization must produce
// a bitwise-identical factor to the serial sweep (the size gate is bypassed
// by calling the phases directly).
func TestParallelFactorBitStable(t *testing.T) {
	n, entries := gridEntries(48, 48) // 2304 unknowns: above parallelFactorMinN
	m := NewCSR(n, entries)
	sym := analyzeCholesky(m)
	// Serial reference, built through the same per-chunk phases the
	// factorization schedules.
	ws := newSnScratch(sym)
	ref := &cholFactor{vals: make([]float64, sym.panelLen), d: make([]float64, n), invD: make([]float64, n)}
	for s := int32(0); int(s) < sym.Supernodes(); s++ {
		w := int(sym.snStart[s+1] - sym.snStart[s])
		chunk := sym.updateChunk(s)
		for lo := 0; lo < w; lo += chunk {
			factorPanelCols(m, sym, ref, s, lo, min(lo+chunk, w), ws)
		}
		if err := densePanelLDL(sym, ref, s); err != nil {
			t.Fatal(err)
		}
	}
	ref.compress(sym)
	got, err := factorSupernodal(m, sym)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.vals {
		if got.vals[i] != ref.vals[i] {
			t.Fatalf("panel value %d: parallel %v vs serial %v", i, got.vals[i], ref.vals[i])
		}
	}
	for i := range ref.d {
		if got.d[i] != ref.d[i] {
			t.Fatalf("pivot %d: parallel %v vs serial %v", i, got.d[i], ref.d[i])
		}
	}
}
