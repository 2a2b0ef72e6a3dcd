package linalg

import (
	"math"
	"testing"
)

// The Operator.SolveBatch x0 contract (see the interface doc) is asymmetric
// by design: direct backends must ignore warm starts entirely — their
// answers are bit-identical whatever x0 carries — while the CG backend uses
// x0 as an initial guess and must converge in fewer iterations when the
// guess is close. These tests pin both halves so a future backend cannot
// silently start honoring (or ignoring) x0 and shift results.

// gridTestSystem builds an SPD grid-Laplacian system: an nx×ny five-point
// stencil plus ambient legs on the boundary, the same shape as an
// assembled RC thermal network.
func gridTestSystem(nx, ny int) *CSR {
	n := nx * ny
	var entries []Coord
	diag := make([]float64, n)
	at := func(x, y int) int { return y*nx + x }
	couple := func(a, b int, w float64) {
		entries = append(entries, Coord{I: a, J: b, V: -w}, Coord{I: b, J: a, V: -w})
		diag[a] += w
		diag[b] += w
	}
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := at(x, y)
			if x+1 < nx {
				couple(i, at(x+1, y), 1.0+0.1*float64(i%7))
			}
			if y+1 < ny {
				couple(i, at(x, y+1), 1.5+0.05*float64(i%5))
			}
			if x == 0 || y == 0 || x == nx-1 || y == ny-1 {
				diag[i] += 0.3 // ambient leg
			}
		}
	}
	for i, d := range diag {
		entries = append(entries, Coord{I: i, J: i, V: d})
	}
	return NewCSR(n, entries)
}

// junkFilled returns a batch of x0 vectors full of garbage (huge, negative,
// NaN-free but wildly wrong) that would perturb any solver that read them.
func junkFilled(k, n int) [][]float64 {
	out := make([][]float64, k)
	for c := range out {
		out[c] = make([]float64, n)
		for i := range out[c] {
			out[c][i] = 1e12 * math.Cos(float64(c*n+i))
		}
	}
	return out
}

func warmTestRHS(k, n int) [][]float64 {
	b := make([][]float64, k)
	for c := range b {
		b[c] = make([]float64, n)
		for i := range b[c] {
			b[c][i] = math.Sin(float64(c + 1*i))
		}
	}
	return b
}

// Direct backends (dense LU, Cholesky) must be bit-identical under
// any x0, both per-column and batched.
func TestDirectBackendsIgnoreWarmStart(t *testing.T) {
	g := gridTestSystem(7, 7)
	n := g.N
	entries := make([]Coord, 0, g.NNZ())
	for i := 0; i < n; i++ {
		for p := g.RowPtr[i]; p < g.RowPtr[i+1]; p++ {
			entries = append(entries, Coord{I: i, J: g.ColIdx[p], V: g.Values[p]})
		}
	}
	dense, err := DenseBackend{}.Assemble(n, entries)
	if err != nil {
		t.Fatalf("dense assemble: %v", err)
	}
	chol, err := NewCholeskyOperator(g, 0)
	if err != nil {
		t.Fatalf("cholesky: %v", err)
	}
	const k = 4
	b := warmTestRHS(k, n)
	junk := junkFilled(k, n)
	for _, tc := range []struct {
		name string
		op   Operator
	}{{"dense", dense}, {"cholesky", chol}} {
		if tc.op.Iterative() {
			t.Fatalf("%s: Iterative() = true for a direct backend", tc.name)
		}
		var ws Workspace
		cold, err := tc.op.Solve(b[0], nil, nil, &ws)
		if err != nil {
			t.Fatalf("%s cold Solve: %v", tc.name, err)
		}
		warm, err := tc.op.Solve(b[0], junk[0], nil, &ws)
		if err != nil {
			t.Fatalf("%s warm Solve: %v", tc.name, err)
		}
		for i := range cold {
			if cold[i] != warm[i] {
				t.Fatalf("%s Solve[%d]: cold %g != junk-warm %g — direct backends must ignore x0", tc.name, i, cold[i], warm[i])
			}
		}
		coldB, err := tc.op.SolveBatch(b, nil, nil, &ws)
		if err != nil {
			t.Fatalf("%s cold SolveBatch: %v", tc.name, err)
		}
		warmB, err := tc.op.SolveBatch(b, junk, nil, &ws)
		if err != nil {
			t.Fatalf("%s warm SolveBatch: %v", tc.name, err)
		}
		for c := range coldB {
			for i := range coldB[c] {
				if coldB[c][i] != warmB[c][i] {
					t.Fatalf("%s SolveBatch[%d][%d]: cold %g != junk-warm %g", tc.name, c, i, coldB[c][i], warmB[c][i])
				}
			}
		}
	}
}

// The CG backend must exploit a close warm start: starting each column from
// its converged answer has to take strictly fewer iterations than starting
// cold, while reaching the same tolerance.
func TestCGWarmStartConvergesFaster(t *testing.T) {
	g := gridTestSystem(12, 12)
	n := g.N
	op := NewSparseOperator(g, CGOptions{})
	if !op.Iterative() {
		t.Fatal("sparse operator reports Iterative() = false")
	}
	const k = 3
	b := warmTestRHS(k, n)
	var ws Workspace
	coldIters := make([]int, k)
	sols := make([][]float64, k)
	for c := range b {
		x, err := op.Solve(b[c], nil, nil, &ws)
		if err != nil {
			t.Fatalf("cold Solve %d: %v", c, err)
		}
		coldIters[c] = ws.LastIterations
		if coldIters[c] < 2 {
			t.Fatalf("cold Solve %d took %d iterations — system too easy to observe warm-start gains", c, coldIters[c])
		}
		sols[c] = append([]float64(nil), x...)
	}
	for c := range b {
		x, err := op.Solve(b[c], sols[c], nil, &ws)
		if err != nil {
			t.Fatalf("warm Solve %d: %v", c, err)
		}
		if ws.LastIterations >= coldIters[c] {
			t.Fatalf("column %d: warm start took %d iterations, cold took %d — x0 not exploited", c, ws.LastIterations, coldIters[c])
		}
		for i := range x {
			if math.Abs(x[i]-sols[c][i]) > 1e-6*(1+math.Abs(sols[c][i])) {
				t.Fatalf("column %d: warm answer drifted at %d: %g vs %g", c, i, x[i], sols[c][i])
			}
		}
	}
}
