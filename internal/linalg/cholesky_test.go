package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// relErr returns max_i |a_i − b_i| / (1 + |a_i|).
func relErr(a, b []float64) float64 {
	var m float64
	for i := range a {
		if e := math.Abs(a[i]-b[i]) / (1 + math.Abs(a[i])); e > m {
			m = e
		}
	}
	return m
}

// newChol factors coordinate entries with no fill cap, returning the error.
func newChol(n int, entries []Coord) (*CholeskyOperator, error) {
	return NewCholeskyOperator(NewCSR(n, entries), 0)
}

func TestCholeskyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 8, 33, 120, 400} {
		entries := spdEntries(rng, n)
		dense := luOracle(t, n, entries)
		chol := cholOf(t, n, entries)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xd := dense.Solve(b)
		xc := chol.Solve(b, nil, &Workspace{})
		if e := relErr(xd, xc); e > 1e-9 {
			t.Fatalf("n=%d: cholesky diverges from dense LU by %g", n, e)
		}
		// Residual must be at direct-solve level.
		r := make([]float64, n)
		chol.Apply(xc, r)
		for i := range r {
			r[i] -= b[i]
		}
		if rn := Norm2(r) / (1 + Norm2(b)); rn > 1e-12 {
			t.Fatalf("n=%d: cholesky residual %g", n, rn)
		}
	}
}

func TestCholeskyBitStable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 150
	entries := spdEntries(rng, n)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	var ref []float64
	for run := 0; run < 3; run++ {
		x := cholOf(t, n, entries).Solve(b, nil, &Workspace{})
		if ref == nil {
			ref = append([]float64(nil), x...)
			continue
		}
		for i := range x {
			if x[i] != ref[i] {
				t.Fatalf("run %d: x[%d] = %v differs bitwise from %v", run, i, x[i], ref[i])
			}
		}
	}
}

func TestCholeskyShiftReusesSymbolic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 80
	entries := spdEntries(rng, n)
	base := cholOf(t, n, entries)
	d := make([]float64, n)
	for i := range d {
		d[i] = 1 + rng.Float64()
	}
	shifted, err := base.Shift(d)
	if err != nil {
		t.Fatal(err)
	}
	if base.sym != shifted.sym {
		t.Fatal("Shift did not share the symbolic analysis")
	}
	// Parity with a dense LU of the same shifted system.
	dshift := denseOf(n, entries)
	for i, v := range d {
		dshift.Add(i, i, v)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	xd, err := SolveDense(dshift, b)
	if err != nil {
		t.Fatal(err)
	}
	xc := shifted.Solve(b, nil, &Workspace{})
	if e := relErr(xd, xc); e > 1e-9 {
		t.Fatalf("shifted cholesky diverges from shifted dense by %g", e)
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	// Symmetric indefinite: [[1 2][2 1]] has a negative eigenvalue.
	_, err := newChol(2, []Coord{
		{0, 0, 1}, {1, 1, 1}, {0, 1, 2}, {1, 0, 2},
	})
	if !errors.Is(err, ErrNotSPD) {
		t.Fatalf("indefinite matrix: got %v, want ErrNotSPD", err)
	}
	// Singular: [[1 1][1 1]].
	_, err = newChol(2, []Coord{
		{0, 0, 1}, {1, 1, 1}, {0, 1, 1}, {1, 0, 1},
	})
	if !errors.Is(err, ErrNotSPD) {
		t.Fatalf("singular matrix: got %v, want ErrNotSPD", err)
	}
	// Structurally singular: empty row/column 1.
	_, err = newChol(2, []Coord{{0, 0, 1}})
	if !errors.Is(err, ErrNotSPD) {
		t.Fatalf("structurally singular matrix: got %v, want ErrNotSPD", err)
	}
	// Asymmetric values.
	_, err = newChol(2, []Coord{
		{0, 0, 2}, {1, 1, 2}, {0, 1, 1}, {1, 0, 0.5},
	})
	if !errors.Is(err, ErrNotSymmetric) {
		t.Fatalf("asymmetric matrix: got %v, want ErrNotSymmetric", err)
	}
	// Asymmetric structure.
	_, err = newChol(2, []Coord{
		{0, 0, 2}, {1, 1, 2}, {0, 1, 1},
	})
	if !errors.Is(err, ErrNotSymmetric) {
		t.Fatalf("structurally asymmetric matrix: got %v, want ErrNotSymmetric", err)
	}
}

func TestCholeskyFillCap(t *testing.T) {
	// A 2D grid Laplacian genuinely fills in (a random tree would factor
	// with zero fill and never trip the cap).
	n, entries := gridEntries(14, 14)
	m := NewCSR(n, entries)
	if _, err := NewCholeskyOperator(m, 1.0001); !errors.Is(err, ErrCholeskyFill) {
		t.Fatalf("tight fill cap: got %v, want ErrCholeskyFill", err)
	}
	if _, err := NewCholeskyOperator(m, 1e6); err != nil {
		t.Fatalf("loose fill cap: %v", err)
	}
}

// gridEntries builds an nx×ny 2D grid Laplacian with a weak diagonal tie.
func gridEntries(nx, ny int) (int, []Coord) {
	n := nx * ny
	idx := func(x, y int) int { return y*nx + x }
	var entries []Coord
	diag := make([]float64, n)
	add := func(a, b int) {
		entries = append(entries, Coord{a, b, -1}, Coord{b, a, -1})
		diag[a]++
		diag[b]++
	}
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			if x+1 < nx {
				add(idx(x, y), idx(x+1, y))
			}
			if y+1 < ny {
				add(idx(x, y), idx(x, y+1))
			}
		}
	}
	for i := 0; i < n; i++ {
		entries = append(entries, Coord{i, i, diag[i] + 0.01})
	}
	return n, entries
}

func TestCholeskySolveAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 300
	op := cholOf(t, n, spdEntries(rng, n))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	dst := make([]float64, n)
	ws := &Workspace{}
	op.Solve(b, dst, ws)
	allocs := testing.AllocsPerRun(50, func() { op.Solve(b, dst, ws) })
	if allocs != 0 {
		t.Fatalf("cholesky solve allocates %v times per run, want 0", allocs)
	}
}

func TestOrderingsArePermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	orders := map[string]func(*CSR) []int{"rcm": rcmOrder, "amd": amdOrder}
	for _, n := range []int{1, 2, 7, 64, 333} {
		m := NewCSR(n, spdEntries(rng, n))
		for name, order := range orders {
			perm := order(m)
			if len(perm) != n {
				t.Fatalf("%s n=%d: perm length %d", name, n, len(perm))
			}
			seen := make([]bool, n)
			for _, p := range perm {
				if p < 0 || p >= n || seen[p] {
					t.Fatalf("%s n=%d: invalid permutation %v", name, n, perm)
				}
				seen[p] = true
			}
		}
	}
}

// TestMinDegreeBeatsRCMOnHub: a star graph (one hub) is the canonical case
// a bandwidth ordering handles badly and minimum degree handles perfectly —
// eliminating the leaves first yields a zero-fill factor.
func TestMinDegreeBeatsRCMOnHub(t *testing.T) {
	const n = 50
	var entries []Coord
	for i := 1; i < n; i++ {
		entries = append(entries, Coord{0, i, -1}, Coord{i, 0, -1})
	}
	entries = append(entries, Coord{0, 0, float64(n)})
	for i := 1; i < n; i++ {
		entries = append(entries, Coord{i, i, 1.5})
	}
	m := NewCSR(n, entries)
	sym := analyzeCholesky(m)
	if sym.nnzL != n-1 {
		t.Fatalf("star graph: nnz(L)=%d, want %d (zero fill)", sym.nnzL, n-1)
	}
}

// TestCholeskyGridBandwidth sanity-checks the ordering on the workload the
// factor exists for: a 2D grid Laplacian must factor with far less fill
// than natural order would give, and solve to oracle accuracy.
func TestCholeskyGridBandwidth(t *testing.T) {
	const nx = 20
	n, entries := gridEntries(nx, nx)
	co := cholOf(t, n, entries)
	// RCM on an nx×ny grid keeps the profile within ~bandwidth·n; natural
	// order would too, but a generous cap still catches an ordering bug
	// (identity or random order fills far more).
	if maxL := n * (nx + 2); co.NNZL() > maxL {
		t.Fatalf("grid fill nnz(L)=%d exceeds bandwidth bound %d", co.NNZL(), maxL)
	}
	b := make([]float64, n)
	rng := rand.New(rand.NewSource(2))
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	xd := luOracle(t, n, entries).Solve(b)
	xc := co.Solve(b, nil, &Workspace{})
	if e := relErr(xd, xc); e > 1e-9 {
		t.Fatalf("grid: cholesky diverges from dense by %g", e)
	}
}
