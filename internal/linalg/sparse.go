package linalg

import (
	"fmt"
	"math"
	"sort"
)

// Coord is a coordinate-format sparse entry used while assembling a system.
type Coord struct {
	I, J int
	V    float64
}

// CSR is a compressed-sparse-row matrix: the storage behind both sparse
// solvers, the compact model's Cholesky factor and the reference solver's
// CG, whose conduction matrices are symmetric positive definite but far too
// large for dense factorization.
type CSR struct {
	N      int // square dimension
	RowPtr []int
	ColIdx []int
	Values []float64
}

// NewCSR assembles a CSR matrix from coordinate entries. Duplicate (i, j)
// entries are summed, which makes finite-volume assembly trivial.
func NewCSR(n int, entries []Coord) *CSR {
	for _, e := range entries {
		if e.I < 0 || e.I >= n || e.J < 0 || e.J >= n {
			panic(fmt.Sprintf("linalg: CSR entry (%d,%d) out of range for n=%d", e.I, e.J, n))
		}
	}
	sorted := make([]Coord, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].I != sorted[b].I {
			return sorted[a].I < sorted[b].I
		}
		return sorted[a].J < sorted[b].J
	})
	m := &CSR{N: n, RowPtr: make([]int, n+1)}
	for k := 0; k < len(sorted); {
		i, j := sorted[k].I, sorted[k].J
		v := 0.0
		for k < len(sorted) && sorted[k].I == i && sorted[k].J == j {
			v += sorted[k].V
			k++
		}
		if v != 0 {
			m.ColIdx = append(m.ColIdx, j)
			m.Values = append(m.Values, v)
			m.RowPtr[i+1] = len(m.ColIdx)
		}
	}
	// Fill row pointers for empty rows.
	for i := 1; i <= n; i++ {
		if m.RowPtr[i] < m.RowPtr[i-1] {
			m.RowPtr[i] = m.RowPtr[i-1]
		}
	}
	return m
}

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.Values) }

// MulVec computes y = A·x into the provided destination (allocated if nil).
func (m *CSR) MulVec(x, dst []float64) []float64 {
	if len(x) != m.N {
		panic("linalg: CSR.MulVec dimension mismatch")
	}
	if dst == nil {
		dst = make([]float64, m.N)
	}
	for i := 0; i < m.N; i++ {
		var s float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Values[k] * x[m.ColIdx[k]]
		}
		dst[i] = s
	}
	return dst
}

// Diagonal extracts the diagonal of the matrix (zeros where absent).
func (m *CSR) Diagonal() []float64 {
	d := make([]float64, m.N)
	for i := 0; i < m.N; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.ColIdx[k] == i {
				d[i] = m.Values[k]
				break
			}
		}
	}
	return d
}

// CGOptions control the conjugate-gradient solver.
type CGOptions struct {
	Tol     float64 // relative residual tolerance (default 1e-9)
	MaxIter int     // default 10·N
}

// CGResult reports convergence information from one CG solve.
type CGResult struct {
	Iterations int
	Residual   float64 // final relative residual
	Converged  bool
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot dimension mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

// AXPY computes y ← y + alpha·x in place.
func AXPY(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: AXPY dimension mismatch")
	}
	for i := range y {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies every element of v by alpha in place.
func Scale(alpha float64, v []float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Fill sets every element of v to x.
func Fill(v []float64, x float64) {
	for i := range v {
		v[i] = x
	}
}

// SparseOperator is a CSR matrix solved with Jacobi-preconditioned
// conjugate gradients: O(nnz) per iteration, warm-startable, and the solver
// for the reference solver's 3-D grids, whose factors would fill in.
// Immutable after construction and safe for concurrent solves
// (per-goroutine scratch comes from the Workspace).
type SparseOperator struct {
	m   *CSR
	opt CGOptions
}

// NewSparseOperator builds a CG operator over an existing CSR matrix. The
// matrix must not be mutated afterwards. Zero CGOptions fields default to
// tolerance 1e-10 and a 50·n iteration cap.
func NewSparseOperator(m *CSR, opt CGOptions) *SparseOperator {
	if opt.Tol == 0 {
		opt.Tol = 1e-10
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = 50 * m.N
	}
	return &SparseOperator{m: m, opt: opt}
}

// Matrix exposes the underlying CSR (read-only).
func (s *SparseOperator) Matrix() *CSR { return s.m }

// Solve solves A·x = b by CG, starting from x0 (nil = zero guess). ws is
// optional per-goroutine scratch (nil allocates); dst, when non-nil, is the
// result buffer. A solve that misses the tolerance within the iteration cap
// returns an error.
func (s *SparseOperator) Solve(b, x0, dst []float64, ws *Workspace) ([]float64, error) {
	if ws == nil {
		ws = &Workspace{}
	}
	if dst == nil {
		dst = make([]float64, s.m.N)
	}
	res := solveCGWS(s.m, b, x0, dst, s.opt, ws)
	if !res.Converged {
		return nil, fmt.Errorf("linalg: CG stalled at relative residual %g after %d iterations", res.Residual, res.Iterations)
	}
	return dst, nil
}

// Shifted returns a new CSR equal to m + diag(d). Rows that lack a structural
// diagonal entry gain one.
func (m *CSR) Shifted(d []float64) *CSR {
	if len(d) != m.N {
		panic("linalg: Shifted dimension mismatch")
	}
	out := &CSR{
		N:      m.N,
		RowPtr: make([]int, 0, m.N+1),
		ColIdx: make([]int, 0, m.NNZ()+m.N),
		Values: make([]float64, 0, m.NNZ()+m.N),
	}
	out.RowPtr = append(out.RowPtr, 0)
	for i := 0; i < m.N; i++ {
		placed := false
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j, v := m.ColIdx[k], m.Values[k]
			if j == i {
				v += d[i]
				placed = true
			} else if j > i && !placed {
				// Columns are sorted within a row (NewCSR guarantees it), so
				// insert the new diagonal before the first column past it.
				out.ColIdx = append(out.ColIdx, i)
				out.Values = append(out.Values, d[i])
				placed = true
			}
			out.ColIdx = append(out.ColIdx, j)
			out.Values = append(out.Values, v)
		}
		if !placed {
			out.ColIdx = append(out.ColIdx, i)
			out.Values = append(out.Values, d[i])
		}
		out.RowPtr = append(out.RowPtr, len(out.ColIdx))
	}
	return out
}

// solveCGWS runs Jacobi-preconditioned CG from x0 (nil = zero guess) into x
// with caller-provided scratch: the building block behind
// SparseOperator.Solve, kept allocation-free so a transient can run one
// Workspace per goroutine.
func solveCGWS(a *CSR, b, x0, x []float64, opt CGOptions, ws *Workspace) CGResult {
	n := a.N
	if len(b) != n || len(x) != n {
		panic("linalg: solveCGWS dimension mismatch")
	}
	if opt.Tol == 0 {
		opt.Tol = 1e-9
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = 10 * n
	}
	if x0 != nil {
		copy(x, x0)
	} else {
		Fill(x, 0)
	}
	r, z, p, ap, inv := ws.vectors(n)
	// Jacobi preconditioner from the diagonal.
	a.diagonalInto(inv)
	for i, v := range inv {
		if v == 0 {
			inv[i] = 1
		} else {
			inv[i] = 1 / v
		}
	}
	a.MulVec(x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	bnorm := Norm2(b)
	if bnorm == 0 {
		bnorm = 1
	}
	if rn := Norm2(r) / bnorm; rn < opt.Tol {
		return CGResult{Iterations: 0, Residual: rn, Converged: true}
	}
	for i := range z {
		z[i] = inv[i] * r[i]
	}
	copy(p, z)
	rz := Dot(r, z)
	var res CGResult
	for it := 0; it < opt.MaxIter; it++ {
		a.MulVec(p, ap)
		pap := Dot(p, ap)
		if pap == 0 {
			break
		}
		alpha := rz / pap
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rn := Norm2(r) / bnorm
		res.Iterations = it + 1
		res.Residual = rn
		if rn < opt.Tol {
			res.Converged = true
			return res
		}
		for i := range z {
			z[i] = inv[i] * r[i]
		}
		rzNew := Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return res
}

// diagonalInto extracts the diagonal into dst (zeros where absent).
func (m *CSR) diagonalInto(dst []float64) {
	for i := 0; i < m.N; i++ {
		dst[i] = 0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.ColIdx[k] == i {
				dst[i] = m.Values[k]
				break
			}
		}
	}
}
