package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// spdEntries builds a random symmetric diagonally-dominant (hence SPD)
// system in coordinate form, shaped like an RC conductance matrix: a sparse
// graph Laplacian plus positive diagonal "ambient" terms.
func spdEntries(rng *rand.Rand, n int) []Coord {
	var entries []Coord
	diag := make([]float64, n)
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		g := 0.1 + rng.Float64()
		entries = append(entries,
			Coord{I: i, J: j, V: -g},
			Coord{I: j, J: i, V: -g})
		diag[i] += g
		diag[j] += g
	}
	for i := 0; i < n; i++ {
		diag[i] += 0.05 + rng.Float64() // ambient tie keeps it nonsingular
		entries = append(entries, Coord{I: i, J: i, V: diag[i]})
	}
	return entries
}

// denseOf assembles coordinate entries into a dense matrix, summing
// duplicates.
func denseOf(n int, entries []Coord) *Matrix {
	a := NewMatrix(n, n)
	for _, e := range entries {
		a.Add(e.I, e.J, e.V)
	}
	return a
}

// luOracle factors the dense assembly of entries with partial-pivot LU: the
// oracle the sparse solvers are checked against.
func luOracle(t testing.TB, n int, entries []Coord) *LU {
	t.Helper()
	f, err := FactorLU(denseOf(n, entries))
	if err != nil {
		t.Fatalf("n=%d dense LU: %v", n, err)
	}
	return f
}

// cholOf factors coordinate entries with the supernodal LDLᵀ, no fill cap.
func cholOf(t testing.TB, n int, entries []Coord) *CholeskyOperator {
	t.Helper()
	op, err := NewCholeskyOperator(NewCSR(n, entries), 0)
	if err != nil {
		t.Fatalf("n=%d cholesky: %v", n, err)
	}
	return op
}

// TestBackendsAgreeOnSolve: the three solvers — dense LU, the supernodal
// Cholesky factor and CG — must agree on the same SPD system, and the
// factor's Apply must match the dense product.
func TestBackendsAgreeOnSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 17, 60} {
		entries := spdEntries(rng, n)
		lu := luOracle(t, n, entries)
		chol := cholOf(t, n, entries)
		cg := NewSparseOperator(NewCSR(n, entries), CGOptions{})
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xd := lu.Solve(b)
		xc := chol.Solve(b, nil, nil)
		xs, err := cg.Solve(b, nil, nil, &Workspace{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range xd {
			if math.Abs(xd[i]-xc[i]) > 1e-9*(1+math.Abs(xd[i])) {
				t.Fatalf("n=%d: x[%d] dense %g vs cholesky %g", n, i, xd[i], xc[i])
			}
			if math.Abs(xd[i]-xs[i]) > 1e-7*(1+math.Abs(xd[i])) {
				t.Fatalf("n=%d: x[%d] dense %g vs cg %g", n, i, xd[i], xs[i])
			}
		}
		// Apply must agree with the dense product too.
		yd := denseOf(n, entries).MulVec(xd)
		yc := make([]float64, n)
		chol.Apply(xd, yc)
		for i := range yd {
			if math.Abs(yd[i]-yc[i]) > 1e-9*(1+math.Abs(yd[i])) {
				t.Fatalf("n=%d: Apply mismatch at %d: %g vs %g", n, i, yd[i], yc[i])
			}
		}
	}
}

// TestBackendShiftMatches: the backward-Euler derivation A + diag(d) must
// solve alike through Cholesky.Shift, CG on CSR.Shifted and dense LU.
func TestBackendShiftMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 24
	entries := spdEntries(rng, n)
	d := make([]float64, n)
	for i := range d {
		d[i] = rng.Float64() * 10
	}
	shifted := append([]Coord(nil), entries...)
	for i, v := range d {
		shifted = append(shifted, Coord{I: i, J: i, V: v})
	}
	cs, err := cholOf(t, n, entries).Shift(d)
	if err != nil {
		t.Fatal(err)
	}
	ss := NewSparseOperator(NewCSR(n, entries).Shifted(d), CGOptions{})
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	xd := luOracle(t, n, shifted).Solve(b)
	xc := cs.Solve(b, nil, nil)
	xs, err := ss.Solve(b, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xd {
		if math.Abs(xd[i]-xc[i]) > 1e-9*(1+math.Abs(xd[i])) {
			t.Fatalf("shifted cholesky mismatch at %d: %g vs %g", i, xd[i], xc[i])
		}
		if math.Abs(xd[i]-xs[i]) > 1e-8*(1+math.Abs(xd[i])) {
			t.Fatalf("shifted cg mismatch at %d: %g vs %g", i, xd[i], xs[i])
		}
	}
}

func TestCSRShiftedInsertsMissingDiagonal(t *testing.T) {
	// Row 0 has no structural diagonal.
	m := NewCSR(2, []Coord{{I: 0, J: 1, V: 3}, {I: 1, J: 0, V: 3}, {I: 1, J: 1, V: 4}})
	s := m.Shifted([]float64{5, 1})
	if got := s.Diagonal(); got[0] != 5 || got[1] != 5 {
		t.Fatalf("diagonal after shift = %v, want [5 5]", got)
	}
	// Off-diagonals intact and columns still sorted.
	x := []float64{1, 2}
	y := s.MulVec(x, nil)
	if y[0] != 5*1+3*2 || y[1] != 3*1+5*2 {
		t.Fatalf("MulVec after shift = %v", y)
	}
}

func TestDenseAssembleReportsSingular(t *testing.T) {
	// A Laplacian with no ambient tie is singular: the LU oracle must fail.
	entries := []Coord{
		{I: 0, J: 0, V: 1}, {I: 1, J: 1, V: 1},
		{I: 0, J: 1, V: -1}, {I: 1, J: 0, V: -1},
	}
	if _, err := FactorLU(denseOf(2, entries)); err == nil {
		t.Fatal("expected singular-matrix error")
	}
}

// TestWorkspaceReuseAcrossSizes: one Workspace must serve CG and Cholesky
// solves of shrinking and growing sizes.
func TestWorkspaceReuseAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ws := &Workspace{}
	for _, n := range []int{40, 8, 64} {
		entries := spdEntries(rng, n)
		m := NewCSR(n, entries)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xs, err := NewSparseOperator(m, CGOptions{}).Solve(b, nil, nil, ws)
		if err != nil {
			t.Fatal(err)
		}
		xc := cholOf(t, n, entries).Solve(b, nil, ws)
		// Verify both residuals directly.
		for _, x := range [][]float64{xs, xc} {
			y := m.MulVec(x, nil)
			for i := range y {
				if math.Abs(y[i]-b[i]) > 1e-7*(1+math.Abs(b[i])) {
					t.Fatalf("n=%d residual too large at %d", n, i)
				}
			}
		}
	}
}
