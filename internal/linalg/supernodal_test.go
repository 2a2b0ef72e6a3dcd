package linalg

import (
	"fmt"
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
			xp := op.Solve(b, nil, &Workspace{})
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
// Solve calls to the last bit for every K in 1..17 — which exercises the
// 8- and 4-wide kernels, the padded 5–7-wide remainder and every ragged
// tail — plus widths past the lockstep group cap, both into fresh
// destinations and in place (dst[k] aliasing b[k], as rcnet's batched step
// solves).
func TestSolveBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n = 160
	op := cholOf(t, n, spdEntries(rng, n))
	widths := make([]int, 0, 19)
	for kk := 1; kk <= 17; kk++ {
		widths = append(widths, kk)
	}
	widths = append(widths, 40, 70)
	for _, kk := range widths {
		b := make([][]float64, kk)
		for k := range b {
			b[k] = make([]float64, n)
			for i := range b[k] {
				b[k][i] = rng.NormFloat64()
			}
		}
		seq := make([][]float64, kk)
		ws := &Workspace{}
		for k := range b {
			seq[k] = op.Solve(b[k], nil, ws)
		}
		got := op.SolveBatch(b, nil, &Workspace{})
		inPlace := make([][]float64, kk)
		for k := range b {
			inPlace[k] = append([]float64(nil), b[k]...)
		}
		op.SolveBatch(inPlace, inPlace, &Workspace{})
		for _, run := range []struct {
			name string
			x    [][]float64
		}{{"fresh", got}, {"aliased", inPlace}} {
			for k := range seq {
				for i := range seq[k] {
					if run.x[k][i] != seq[k][i] {
						t.Fatalf("K=%d %s: column %d row %d: batch %v vs sequential %v",
							kk, run.name, k, i, run.x[k][i], seq[k][i])
					}
				}
			}
		}
	}
}

// TestSolveBatchAllocationFree: the batched direct solve must not allocate
// once workspace and destination buffers exist — through the 4- and 8-wide
// kernels, repeated 8-wide passes, the padded 5–7-wide remainder and the
// mixed-width tail dispatch.
func TestSolveBatchAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 300
	op := cholOf(t, n, spdEntries(rng, n))
	for _, kk := range []int{4, 5, 6, 7, 8, 13, 16, 23} {
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
		op.SolveBatch(b, dst, ws)
		allocs := testing.AllocsPerRun(50, func() { op.SolveBatch(b, dst, ws) })
		if allocs != 0 {
			t.Fatalf("K=%d: batched solve allocates %v times per run, want 0", kk, allocs)
		}
	}
}

// --- scalar reference kernel ---

// scalarFactor is the column-at-a-time LDLᵀ factorization the supernodal
// kernels replaced, kept as their parity oracle: same symbolic analysis,
// scalar up-looking numeric phase, per-entry triangular solves.
type scalarFactor struct {
	rowIdx []int
	values []float64
	invD   []float64
}

// factorScalarLDL runs the up-looking numeric phase on the permuted matrix:
// row k of L is the solution of a sparse triangular system whose pattern is
// read off the elimination tree. Rejects non-positive pivots.
func factorScalarLDL(m *CSR, sym *cholSymbolic) (*scalarFactor, error) {
	n := sym.n
	f := &scalarFactor{
		rowIdx: make([]int, sym.nnzL),
		values: make([]float64, sym.nnzL),
		invD:   make([]float64, n),
	}
	y := make([]float64, n)   // dense accumulator for row k
	flag := make([]int, n)    // step marker
	pattern := make([]int, n) // tree path scratch
	stack := make([]int, n)   // row pattern in topological order
	lnz := make([]int, n)     // entries placed so far per column
	d := make([]float64, n)   // pivots of D
	for i := range flag {
		flag[i] = -1
	}
	for k := 0; k < n; k++ {
		top := n
		flag[k] = k
		row := sym.perm[k]
		for p := m.RowPtr[row]; p < m.RowPtr[row+1]; p++ {
			i := sym.iperm[m.ColIdx[p]]
			if i > k {
				continue // lower triangle of the permuted matrix: symmetric twin covers it
			}
			y[i] += m.Values[p]
			ln := 0
			for ; flag[i] != k; i = sym.parent[i] {
				pattern[ln] = i
				ln++
				flag[i] = k
			}
			for ln > 0 {
				ln--
				top--
				stack[top] = pattern[ln]
			}
		}
		dk := y[k]
		y[k] = 0
		for s := top; s < n; s++ {
			i := stack[s]
			yi := y[i]
			y[i] = 0
			p2 := sym.colPtr[i] + lnz[i]
			for p := sym.colPtr[i]; p < p2; p++ {
				y[f.rowIdx[p]] -= f.values[p] * yi
			}
			lki := yi / d[i]
			dk -= lki * yi
			f.rowIdx[p2] = k
			f.values[p2] = lki
			lnz[i]++
		}
		if dk <= 0 {
			return nil, fmt.Errorf("%w: pivot %d (node %d) is %g", ErrNotSPD, k, sym.perm[k], dk)
		}
		d[k] = dk
		f.invD[k] = 1 / dk
	}
	return f, nil
}

// solveScalar runs the per-entry permuted triangular solves against a
// scalar factor (oracle for the panel solves).
func (f *scalarFactor) solveScalar(sym *cholSymbolic, b []float64) []float64 {
	n := sym.n
	y := make([]float64, n)
	for k, p := range sym.perm {
		y[k] = b[p]
	}
	colPtr := sym.colPtr
	for j := 0; j < n; j++ {
		yj := y[j]
		if yj == 0 {
			continue
		}
		for p := colPtr[j]; p < colPtr[j+1]; p++ {
			y[f.rowIdx[p]] -= f.values[p] * yj
		}
	}
	for j := n - 1; j >= 0; j-- {
		s := y[j] * f.invD[j]
		for p := colPtr[j]; p < colPtr[j+1]; p++ {
			s -= f.values[p] * y[f.rowIdx[p]]
		}
		y[j] = s
	}
	dst := make([]float64, n)
	for k, p := range sym.perm {
		dst[p] = y[k]
	}
	return dst
}
