package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixBasics(t *testing.T) {
	m := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("At wrong: %v", m)
	}
	m.Set(0, 0, 5)
	m.Add(0, 0, 1)
	if m.At(0, 0) != 6 {
		t.Fatalf("Set/Add wrong: got %g", m.At(0, 0))
	}
	c := m.Clone()
	c.Set(1, 1, 99)
	if m.At(1, 1) == 99 {
		t.Fatal("Clone aliases original")
	}
	tr := m.Transpose()
	if tr.At(1, 0) != m.At(0, 1) {
		t.Fatal("Transpose wrong")
	}
}

func TestMatrixMulVec(t *testing.T) {
	m := NewMatrixFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	y := m.MulVec([]float64{1, 1, 1})
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVec got %v", y)
	}
}

func TestMatrixMul(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	b := NewMatrixFrom([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul(%d,%d)=%g want %g", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestLUSolveKnown(t *testing.T) {
	a := NewMatrixFrom([][]float64{
		{4, -1, 0},
		{-1, 4, -1},
		{0, -1, 4},
	})
	b := []float64{3, 2, 3}
	x, err := SolveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ax := a.MulVec(x)
	for i := range b {
		if !almostEq(ax[i], b[i], 1e-12) {
			t.Fatalf("residual at %d: %g vs %g", i, ax[i], b[i])
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {2, 4}})
	if _, err := FactorLU(a); err == nil {
		t.Fatal("expected singular matrix error")
	}
}

func TestLUPivoting(t *testing.T) {
	// Zero on the diagonal requires pivoting.
	a := NewMatrixFrom([][]float64{{0, 1}, {1, 0}})
	x, err := SolveDense(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 3, 1e-14) || !almostEq(x[1], 2, 1e-14) {
		t.Fatalf("pivoted solve wrong: %v", x)
	}
}

func randomSPD(rng *rand.Rand, n int) *Matrix {
	// A = B·Bᵀ + n·I is SPD.
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := b.Mul(b.Transpose())
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a
}

// Property: LU solve reproduces b within tolerance for random
// diagonally-dominant systems.
func TestLUSolveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		a := randomSPD(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := SolveDense(a, b)
		if err != nil {
			return false
		}
		ax := a.MulVec(x)
		for i := range b {
			if !almostEq(ax[i], b[i], 1e-8*(1+math.Abs(b[i]))) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyMatchesLU(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomSPD(rng, 8)
	b := make([]float64, 8)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	ch, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	xc := ch.Solve(b)
	xl, err := SolveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xc {
		if !almostEq(xc[i], xl[i], 1e-9) {
			t.Fatalf("cholesky vs lu at %d: %g vs %g", i, xc[i], xl[i])
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := FactorCholesky(a); err == nil {
		t.Fatal("expected non-PD error")
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Overdetermined but consistent system recovers the exact solution.
	a := NewMatrixFrom([][]float64{{1, 0}, {0, 1}, {1, 1}})
	truth := []float64{2, -3}
	b := a.MulVec(truth)
	x, err := LeastSquares(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if !almostEq(x[i], truth[i], 1e-10) {
			t.Fatalf("LS x[%d]=%g want %g", i, x[i], truth[i])
		}
	}
}

func TestLeastSquaresRegularized(t *testing.T) {
	// With heavy regularization the solution shrinks toward zero.
	a := NewMatrixFrom([][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}})
	b := []float64{1, 1, 1}
	x, err := LeastSquares(a, b, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if !almostEq(x[i], 0.1, 1e-10) {
			t.Fatalf("ridge x[%d]=%g want 0.1", i, x[i])
		}
	}
}
