package linalg

import (
	"fmt"
)

// This file defines the shared solver-backend layer used by every linear
// thermal solver in the repository (see DESIGN.md §1.3). The compact RC model
// (rcnet) and the fine-grid reference solver (refsolver) both produce
// symmetric positive-definite conductance systems; they assemble coordinate
// entries once and then talk to an Operator, never to a concrete matrix
// representation. Two backends implement the interface:
//
//   - DenseBackend: dense storage with LU factorization. Exact, O(n³) to
//     build, O(n²) per solve. Kept for tiny networks (where it wins on
//     constant factors) and as the parity oracle for the sparse path.
//   - SparseBackend: CSR storage with Jacobi-preconditioned conjugate
//     gradients. O(nnz) per iteration, warm-startable, and the only viable
//     choice for the O(10^4-10^5)-unknown reference grids and large
//     floorplan networks.
//
// Operators are immutable once assembled, so a single Operator may be shared
// by any number of goroutines; per-goroutine mutable state lives in a
// Workspace passed to Solve.

// Operator is an assembled symmetric positive-definite linear operator A
// together with a way to solve A·x = b. Implementations are immutable after
// construction and safe for concurrent use; callers that solve from multiple
// goroutines must pass distinct Workspaces.
type Operator interface {
	// Dim returns the square dimension of the operator.
	Dim() int
	// Apply computes dst = A·x. dst must have length Dim and may not alias x.
	Apply(x, dst []float64)
	// Solve solves A·x = b. x0 is an optional warm start (nil = zero guess;
	// iterative backends exploit it, direct ones ignore it). ws is optional
	// per-goroutine scratch (nil allocates). The solution is returned; dst,
	// when non-nil, is used as the result buffer.
	Solve(b, x0, dst []float64, ws *Workspace) ([]float64, error)
	// SolveBatch solves A·X = B for K = len(b) right-hand sides in one
	// factor traversal where the backend supports it (the supernodal direct
	// path; dense LU and CG fall back to per-column solves). x0 and dst
	// follow the Solve contract column-wise (either may be nil, as may
	// individual columns). The x0 warm-start contract is asymmetric by
	// design: direct backends (dense LU, Cholesky, reduced) ignore x0
	// entirely — their results are bit-identical for any warm start — while
	// the iterative backend uses x0[k] as column k's initial guess, reaching
	// the same converged answer in fewer iterations when the guess is close.
	// Per-column results are identical to K successive Solve calls —
	// batching changes memory traffic, never arithmetic — so batched and
	// sequential callers agree bitwise. On the iterative backend the first
	// stalled column aborts the remaining ones; direct backends cannot fail
	// after factorization.
	SolveBatch(b, x0, dst [][]float64, ws *Workspace) ([][]float64, error)
	// Shift returns a new operator A + diag(d) sharing no mutable state with
	// the receiver. This is how backward-Euler operators (C/dt + A) are
	// derived from a conductance operator without reassembly by the caller.
	Shift(d []float64) (Operator, error)
	// Diag returns a copy of the operator's diagonal.
	Diag() []float64
	// Iterative reports whether Solve stops at an iterative tolerance
	// (true for CG) rather than solving exactly (false for LU). Callers use
	// it to decide whether post-solve polishing is worthwhile.
	Iterative() bool
}

// Backend assembles Operators from coordinate-format entries. Duplicate
// (i, j) entries are summed in their given order.
type Backend interface {
	// Name identifies the backend ("dense" or "sparse") for logs and tests.
	Name() string
	// Assemble builds an n×n operator from coordinate entries.
	Assemble(n int, entries []Coord) (Operator, error)
}

// Workspace holds per-goroutine scratch vectors for solves. The zero value
// is ready to use; vectors grow on demand and are reused across calls, so a
// long transient performs no per-step allocation.
type Workspace struct {
	r, z, p, ap, inv []float64
	y                []float64 // direct-solve scratch (Cholesky permuted solve)
	yb               []float64 // interleaved K-wide block (batched direct solves)

	// LastIterations reports the iteration count of the most recent Solve
	// through this workspace: CG iterations for the iterative backend, 0 for
	// the direct ones. Callers use it for per-path solver statistics; the
	// workspace is per-goroutine, so the read is race-free.
	LastIterations int

	// KernelSolves counts direct triangular-sweep kernel invocations made
	// through this workspace, by kernel width: slots 0..3 are the 1-, 4-,
	// 8- and 16-wide kernels. Per-goroutine like the rest of the workspace; callers
	// that aggregate solver statistics read and reset the slots between
	// solves.
	KernelSolves [4]int64

	// Reduced-operator scratch: projected right-hand side, reduced solution
	// and triangular-sweep intermediate, each of length order r.
	rb, rx, ry []float64
}

// reduced returns the three length-r reduced-solve scratch vectors, growing
// them if needed.
func (w *Workspace) reduced(r int) (bh, xh, y []float64) {
	if cap(w.rb) < r {
		w.rb = make([]float64, r)
		w.rx = make([]float64, r)
		w.ry = make([]float64, r)
	}
	return w.rb[:r], w.rx[:r], w.ry[:r]
}

// direct returns the length-n direct-solve scratch vector, growing it if
// needed.
func (w *Workspace) direct(n int) []float64 {
	if cap(w.y) < n {
		w.y = make([]float64, n)
	}
	return w.y[:n]
}

// batchBuf returns the length-n interleaved working block for batched
// solves, growing it if needed.
func (w *Workspace) batchBuf(n int) []float64 {
	if cap(w.yb) < n {
		w.yb = make([]float64, n)
	}
	return w.yb[:n]
}

// vectors returns the five length-n scratch vectors, growing them if needed.
func (w *Workspace) vectors(n int) (r, z, p, ap, inv []float64) {
	if cap(w.r) < n {
		w.r = make([]float64, n)
		w.z = make([]float64, n)
		w.p = make([]float64, n)
		w.ap = make([]float64, n)
		w.inv = make([]float64, n)
	}
	return w.r[:n], w.z[:n], w.p[:n], w.ap[:n], w.inv[:n]
}

// --- Dense backend ---

// DenseBackend assembles dense LU-factored operators.
type DenseBackend struct{}

// Name implements Backend.
func (DenseBackend) Name() string { return "dense" }

// Assemble implements Backend. The factorization happens eagerly, so a
// singular system (e.g. an RC network with no path to ambient) is reported
// here rather than at the first solve.
func (DenseBackend) Assemble(n int, entries []Coord) (Operator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("linalg: dense assemble with n=%d", n)
	}
	a := NewMatrix(n, n)
	for _, e := range entries {
		if e.I < 0 || e.I >= n || e.J < 0 || e.J >= n {
			return nil, fmt.Errorf("linalg: entry (%d,%d) out of range for n=%d", e.I, e.J, n)
		}
		a.Add(e.I, e.J, e.V)
	}
	return newDenseOperator(a)
}

type denseOperator struct {
	a  *Matrix
	lu *LU
}

func newDenseOperator(a *Matrix) (*denseOperator, error) {
	lu, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return &denseOperator{a: a, lu: lu}, nil
}

func (d *denseOperator) Dim() int { return d.a.Rows }

func (d *denseOperator) Apply(x, dst []float64) {
	n := d.a.Rows
	if len(x) != n || len(dst) != n {
		panic("linalg: dense Apply dimension mismatch")
	}
	for i := 0; i < n; i++ {
		row := d.a.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

func (d *denseOperator) Solve(b, _, dst []float64, ws *Workspace) ([]float64, error) {
	if ws != nil {
		ws.LastIterations = 0
	}
	if dst == nil {
		dst = make([]float64, d.a.Rows)
	}
	if &dst[0] == &b[0] {
		copy(dst, d.lu.Solve(b))
		return dst, nil
	}
	d.lu.SolveInto(dst, b)
	return dst, nil
}

// SolveBatch implements Operator: LU back-substitution has no cross-column
// reuse to exploit, so the batch is K successive solves.
func (d *denseOperator) SolveBatch(b, _, dst [][]float64, ws *Workspace) ([][]float64, error) {
	if dst == nil {
		dst = make([][]float64, len(b))
	}
	for k := range b {
		x, err := d.Solve(b[k], nil, dst[k], ws)
		if err != nil {
			return dst, fmt.Errorf("linalg: batch column %d: %w", k, err)
		}
		dst[k] = x
	}
	return dst, nil
}

func (d *denseOperator) Shift(diag []float64) (Operator, error) {
	if len(diag) != d.a.Rows {
		return nil, fmt.Errorf("linalg: Shift dimension mismatch %d vs %d", d.a.Rows, len(diag))
	}
	m := d.a.Clone()
	for i, v := range diag {
		m.Add(i, i, v)
	}
	return newDenseOperator(m)
}

func (d *denseOperator) Diag() []float64 {
	out := make([]float64, d.a.Rows)
	for i := range out {
		out[i] = d.a.At(i, i)
	}
	return out
}

func (d *denseOperator) Iterative() bool { return false }

// --- Sparse backend ---

// SparseBackend assembles CSR operators solved with Jacobi-preconditioned
// conjugate gradients. The zero value uses the package CG defaults
// (tolerance 1e-10, 50·n iteration cap), which keep the iterative answer
// within parity-test tolerance of the dense oracle.
type SparseBackend struct {
	// Opt overrides the CG controls; zero fields take the defaults above.
	Opt CGOptions
}

// Name implements Backend.
func (SparseBackend) Name() string { return "sparse" }

// Assemble implements Backend.
func (s SparseBackend) Assemble(n int, entries []Coord) (Operator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("linalg: sparse assemble with n=%d", n)
	}
	for _, e := range entries {
		if e.I < 0 || e.I >= n || e.J < 0 || e.J >= n {
			return nil, fmt.Errorf("linalg: entry (%d,%d) out of range for n=%d", e.I, e.J, n)
		}
	}
	return NewSparseOperator(NewCSR(n, entries), s.Opt), nil
}

// SparseOperator wraps a CSR matrix with the shared iterative-solver
// machinery. Construct with NewSparseOperator (e.g. to reuse an
// already-assembled CSR, as the reference solver does).
type SparseOperator struct {
	m   *CSR
	opt CGOptions
}

// NewSparseOperator builds an Operator over an existing CSR matrix. The
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

func (s *SparseOperator) Dim() int { return s.m.N }

func (s *SparseOperator) Apply(x, dst []float64) {
	if len(dst) != s.m.N {
		panic("linalg: sparse Apply dimension mismatch")
	}
	s.m.MulVec(x, dst)
}

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

// SolveBatch implements Operator: every column runs its own Krylov
// iteration (there is no shared traversal to amortize), warm-started from
// its x0 column. The first stalled column aborts the remaining ones.
func (s *SparseOperator) SolveBatch(b, x0, dst [][]float64, ws *Workspace) ([][]float64, error) {
	if dst == nil {
		dst = make([][]float64, len(b))
	}
	for k := range b {
		var warm []float64
		if x0 != nil {
			warm = x0[k]
		}
		x, err := s.Solve(b[k], warm, dst[k], ws)
		if err != nil {
			return dst, fmt.Errorf("linalg: batch column %d: %w", k, err)
		}
		dst[k] = x
	}
	return dst, nil
}

func (s *SparseOperator) Shift(diag []float64) (Operator, error) {
	if len(diag) != s.m.N {
		return nil, fmt.Errorf("linalg: Shift dimension mismatch %d vs %d", s.m.N, len(diag))
	}
	return NewSparseOperator(s.m.Shifted(diag), s.opt), nil
}

func (s *SparseOperator) Diag() []float64 { return s.m.Diagonal() }

func (s *SparseOperator) Iterative() bool { return true }

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

// solveCGWS is SolveCG with caller-provided scratch and result buffers: the
// building block behind SparseOperator.Solve, kept allocation-free so
// worker-pool transients can run one Workspace per goroutine.
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
	ws.LastIterations = 0
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
		ws.LastIterations = res.Iterations
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
