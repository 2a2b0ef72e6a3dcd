// Package linalg provides the linear-algebra kernels used by the thermal
// solvers, three concrete tools with one job each (DESIGN.md §1.3): the
// supernodal sparse LDLᵀ factor (CholeskyOperator) behind every compact RC
// model, Jacobi-preconditioned conjugate gradients (SparseOperator) for the
// reference solver's 3-D grids, and dense LU/Cholesky for least squares
// and as the test oracle — plus small vector utilities.
//
// The package is deliberately dependency-free (stdlib only) and sized for the
// problems in this repository: compact thermal models have O(10-10^3)
// unknowns, the reference grids O(10^4-10^5).
package linalg

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewMatrixFrom builds a matrix from a slice of rows. All rows must have the
// same length. The data is copied.
func NewMatrixFrom(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("linalg: empty matrix literal")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged matrix literal")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec computes y = m·x. It panics if dimensions disagree.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch %d vs %d", m.Cols, len(x)))
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// Mul computes the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic("linalg: Mul dimension mismatch")
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			brow := b.Row(k)
			orow := out.Row(i)
			for j := range brow {
				orow[j] += a * brow[j]
			}
		}
	}
	return out
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&b, "% .4g ", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ErrSingular is returned when a factorization encounters an (numerically)
// singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// LU holds an LU factorization with partial pivoting (PA = LU).
type LU struct {
	lu  *Matrix
	piv []int
}

// FactorLU computes the LU factorization of a square matrix with partial
// pivoting. The input is not modified.
func FactorLU(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: FactorLU needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Find pivot.
		p := k
		max := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > max {
				max, p = v, i
			}
		}
		if max == 0 {
			return nil, ErrSingular
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := 0; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / pivot
			lu.Set(i, k, f)
			if f == 0 {
				continue
			}
			ri, rk := lu.Row(i), lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= f * rk[j]
			}
		}
	}
	return &LU{lu: lu, piv: piv}, nil
}

// Solve returns x such that A·x = b for the factored A.
func (f *LU) Solve(b []float64) []float64 {
	return f.SolveInto(make([]float64, f.lu.Rows), b)
}

// SolveInto solves A·x = b into the caller-provided x (returned), performing
// no allocation. x must not alias b: the pivoted gather reads b after x has
// started being written.
func (f *LU) SolveInto(x, b []float64) []float64 {
	n := f.lu.Rows
	if len(b) != n || len(x) != n {
		panic("linalg: LU.Solve dimension mismatch")
	}
	for i, p := range f.piv {
		x[i] = b[p]
	}
	// Forward substitution (L has unit diagonal).
	for i := 1; i < n; i++ {
		row := f.lu.Row(i)
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x
}

// SolveDense is a convenience wrapper: factor A and solve A·x = b once.
func SolveDense(a *Matrix, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// Cholesky holds the lower-triangular Cholesky factor of an SPD matrix.
type Cholesky struct {
	l *Matrix
}

// FactorCholesky computes A = L·Lᵀ for symmetric positive-definite A.
func FactorCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: FactorCholesky needs a square matrix")
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			v := l.At(j, k)
			d -= v * v
		}
		if d <= 0 {
			return nil, fmt.Errorf("linalg: matrix not positive definite at pivot %d (d=%g): %w", j, d, ErrSingular)
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			ri, rj := l.Row(i), l.Row(j)
			for k := 0; k < j; k++ {
				s -= ri[k] * rj[k]
			}
			l.Set(i, j, s/d)
		}
	}
	return &Cholesky{l: l}, nil
}

// Solve returns x with A·x = b for the factored SPD matrix A.
func (c *Cholesky) Solve(b []float64) []float64 {
	n := c.l.Rows
	if len(b) != n {
		panic("linalg: Cholesky.Solve dimension mismatch")
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		row := c.l.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * y[k]
		}
		y[i] = s / row[i]
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= c.l.At(k, i) * x[k]
		}
		x[i] = s / c.l.At(i, i)
	}
	return x
}

// LeastSquares solves min ‖A·x − b‖₂ via the normal equations AᵀA x = Aᵀb
// with a small Tikhonov regularization lambda ≥ 0 on the diagonal. It is used
// by the IR power-inversion code where A is a well-conditioned thermal
// influence matrix.
func LeastSquares(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	if len(b) != a.Rows {
		return nil, fmt.Errorf("linalg: LeastSquares dimension mismatch %d vs %d", a.Rows, len(b))
	}
	at := a.Transpose()
	ata := at.Mul(a)
	for i := 0; i < ata.Rows; i++ {
		ata.Add(i, i, lambda)
	}
	atb := at.MulVec(b)
	ch, err := FactorCholesky(ata)
	if err != nil {
		// Fall back to LU if rounding broke positive definiteness.
		return SolveDense(ata, atb)
	}
	return ch.Solve(atb), nil
}
