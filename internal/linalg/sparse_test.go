package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCSRAssemblyDuplicates(t *testing.T) {
	m := NewCSR(2, []Coord{{0, 0, 1}, {0, 0, 2}, {1, 1, 5}, {0, 1, -1}})
	if m.NNZ() != 3 {
		t.Fatalf("NNZ=%d want 3", m.NNZ())
	}
	y := m.MulVec([]float64{1, 1}, nil)
	if y[0] != 2 || y[1] != 5 {
		t.Fatalf("MulVec got %v", y)
	}
}

func TestCSRDiagonal(t *testing.T) {
	m := NewCSR(3, []Coord{{0, 0, 2}, {1, 2, 7}, {2, 2, -4}})
	d := m.Diagonal()
	if d[0] != 2 || d[1] != 0 || d[2] != -4 {
		t.Fatalf("Diagonal got %v", d)
	}
}

// laplacian1D builds the standard SPD tridiagonal Poisson matrix.
func laplacian1D(n int) *CSR {
	var e []Coord
	for i := 0; i < n; i++ {
		e = append(e, Coord{i, i, 2})
		if i > 0 {
			e = append(e, Coord{i, i - 1, -1})
		}
		if i < n-1 {
			e = append(e, Coord{i, i + 1, -1})
		}
	}
	return NewCSR(n, e)
}

func TestCGSolvesLaplacian(t *testing.T) {
	n := 100
	a := laplacian1D(n)
	truth := make([]float64, n)
	rng := rand.New(rand.NewSource(1))
	for i := range truth {
		truth[i] = rng.NormFloat64()
	}
	b := a.MulVec(truth, nil)
	x, err := NewSparseOperator(a, CGOptions{Tol: 1e-12}).Solve(b, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if math.Abs(x[i]-truth[i]) > 1e-6 {
			t.Fatalf("CG x[%d]=%g want %g", i, x[i], truth[i])
		}
	}
}

func TestCGWarmStart(t *testing.T) {
	n := 50
	a := laplacian1D(n)
	b := make([]float64, n)
	Fill(b, 1)
	opt := CGOptions{Tol: 1e-10, MaxIter: 10 * n}
	var ws Workspace
	x1 := make([]float64, n)
	r1 := solveCGWS(a, b, nil, x1, opt, &ws)
	// Warm start at the solution should converge immediately.
	r2 := solveCGWS(a, b, x1, make([]float64, n), opt, &ws)
	if !r1.Converged || !r2.Converged || r2.Iterations > 2 {
		t.Fatalf("warm start took %d iterations (cold: %d)", r2.Iterations, r1.Iterations)
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := laplacian1D(10)
	x := make([]float64, 10)
	Fill(x, 1) // dirty result buffer: the solve must overwrite it
	res := solveCGWS(a, make([]float64, 10), nil, x, CGOptions{}, &Workspace{})
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("zero rhs: %+v, want converged in 0 iterations", res)
	}
	for i, v := range x {
		if v != 0 {
			t.Fatalf("zero rhs should give zero solution, got x[%d]=%g", i, v)
		}
	}
}

func TestVectorOps(t *testing.T) {
	v := []float64{3, -4}
	if Norm2(v) != 5 {
		t.Fatalf("Norm2=%g", Norm2(v))
	}
	y := []float64{1, 1}
	AXPY(2, v, y)
	if y[0] != 7 || y[1] != -7 {
		t.Fatalf("AXPY got %v", y)
	}
	Scale(0.5, y)
	if y[0] != 3.5 {
		t.Fatalf("Scale got %v", y)
	}
}

// Property: CSR MulVec agrees with a dense reference for random sparse
// matrices.
func TestCSRMulVecProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		var entries []Coord
		dense := NewMatrix(n, n)
		for k := 0; k < r.Intn(3*n+1); k++ {
			i, j, v := r.Intn(n), r.Intn(n), r.NormFloat64()
			entries = append(entries, Coord{i, j, v})
			dense.Add(i, j, v)
		}
		m := NewCSR(n, entries)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		got := m.MulVec(x, nil)
		want := dense.MulVec(x)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: CG solution satisfies the residual tolerance for random SPD
// (diagonally dominant) sparse systems.
func TestCGProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		var entries []Coord
		// Symmetric off-diagonals, strong diagonal.
		for i := 0; i < n; i++ {
			entries = append(entries, Coord{i, i, float64(n) + 1})
		}
		for k := 0; k < n; k++ {
			i, j := r.Intn(n), r.Intn(n)
			if i == j {
				continue
			}
			v := r.Float64() - 0.5
			entries = append(entries, Coord{i, j, v}, Coord{j, i, v})
		}
		a := NewCSR(n, entries)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := NewSparseOperator(a, CGOptions{Tol: 1e-10}).Solve(b, nil, nil, nil)
		if err != nil {
			return false
		}
		ax := a.MulVec(x, nil)
		for i := range b {
			if math.Abs(ax[i]-b[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
