package linalg

// This file implements Krylov model-order reduction (MOR) for the compact RC
// thermal systems: a block-Arnoldi basis V projects the full conductance
// pencil (G, C) onto an r-dimensional subspace (r ≪ n), after which a
// backward-Euler step is a tiny dense pre-factored solve. The projected
// system matches the leading block moments of the transfer function
// (sC + G)⁻¹B about s = 0 and about one additional expansion frequency, so
// both the steady-state response and the transient dynamics excited through
// the power-input columns B survive the projection (DESIGN.md §10).
//
// ReducedOperator deliberately keeps the *full-space* Operator contract —
// Dim() = n, Solve maps an n-vector right-hand side to an n-vector solution
// through dst = V·Â⁻¹·Vᵀb — so the rcnet batch step and stats machinery run
// unchanged on top of it. Apply and Diag go through the exact sparse
// matrix, which is what makes cheap a-posteriori residual checks (and the
// automatic fallback they gate) possible.

import (
	"fmt"
	"math"
)

// morDeflationTol is the relative column-norm threshold below which a
// candidate basis vector is considered linearly dependent on the basis built
// so far and dropped (block-Arnoldi deflation).
const morDeflationTol = 1e-10

// ReducedOperator is a Krylov-projected SPD system behaving as a full-space
// Operator: solves are performed in the r-dimensional reduced space through
// a pre-factored dense Cholesky and expanded back, applies and diagonals go
// through the exact sparse matrix. Shift projects the diagonal update into
// the reduced space and shares the basis, so every backward-Euler operator
// derived from one reduction reuses V.
type ReducedOperator struct {
	full *CSR      // exact (possibly shifted) full-space matrix
	v    []float64 // n×r orthonormal basis, column-major (column j = v[j*n:(j+1)*n])
	n, r int
	red  *Matrix   // VᵀAV, kept for deriving shifted operators
	fac  *morChol  // dense Cholesky factor of red
	caps []float64 // capacitance diagonal (shared; basis construction + Shift)

	projErr float64 // a-priori projection error estimate (see NewReducedOperator)
}

// NewReducedOperator builds a reduced-order projection of the SPD system g
// with capacitance diagonal caps. inputs are the full-length right-hand-side
// directions the reduction must serve (the power-injection columns B, plus
// typically the constant ambient term); order caps the basis size; shift is
// the second moment-matching frequency in rad/s (≤ 0 selects it
// automatically from the system's characteristic rates).
//
// The basis interleaves block moments of G⁻¹ and (G + ωC)⁻¹ applied to B —
// the expansion about s = 0 pins DC gains, the shifted expansion pins the
// transient response near ω. (All poles of an RC pencil are real, so the
// prescribed imaginary expansion point iω is realized through its real
// surrogate G + ωC, which spans the same Krylov directions for a symmetric
// pencil at matched |s|.) Columns are orthonormalized by twice-iterated
// modified Gram-Schmidt with deflation; construction fails if the system is
// not SPD or if no basis column survives.
func NewReducedOperator(g *CSR, caps []float64, inputs [][]float64, order int, shift float64) (*ReducedOperator, error) {
	n := g.N
	if len(caps) != n {
		return nil, fmt.Errorf("linalg: reduced operator: %d capacitances for dimension %d", len(caps), n)
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("linalg: reduced operator needs at least one input column")
	}
	for k, b := range inputs {
		if len(b) != n {
			return nil, fmt.Errorf("linalg: reduced operator: input column %d has length %d, want %d", k, len(b), n)
		}
	}
	if order < 1 {
		return nil, fmt.Errorf("linalg: reduced operator: non-positive order %d", order)
	}
	if order > n {
		order = n
	}
	if shift <= 0 {
		shift = autoShift(g, caps)
	}

	// Moment generators: exact sparse factors of G and of the shifted
	// surrogate G + ωC. A system the direct path cannot factor cannot be
	// reduced either — the caller falls back to its full backend.
	op0, err := NewCholeskyOperator(g, 0)
	if err != nil {
		return nil, fmt.Errorf("linalg: reduced operator: factor G: %w", err)
	}
	shifted := make([]float64, n)
	for i, c := range caps {
		shifted[i] = shift * c
	}
	opS, err := op0.Shift(shifted)
	if err != nil {
		return nil, fmt.Errorf("linalg: reduced operator: factor G+ωC: %w", err)
	}

	basis := newMorBasis(n, order)
	ws := &Workspace{}
	// Previous accepted block per expansion point: the next moment block at
	// that point is op⁻¹·C applied to it (orthonormalized vectors keep the
	// recurrence numerically stable).
	prev := [2][][]float64{}
	ops := [2]Operator{op0, opS}
	for pt := 0; pt < 2 && !basis.full(); pt++ {
		prev[pt] = basis.expand(ops[pt], inputs, nil, ws)
	}
	for !basis.full() {
		grew := false
		for pt := 0; pt < 2 && !basis.full(); pt++ {
			if len(prev[pt]) == 0 {
				continue // this point's Krylov sequence has terminated
			}
			prev[pt] = basis.expand(ops[pt], prev[pt], caps, ws)
			grew = grew || len(prev[pt]) > 0
		}
		if !grew {
			break // both sequences deflated to nothing: subspace is exact
		}
	}
	r := basis.size()
	if r == 0 {
		return nil, fmt.Errorf("linalg: reduced operator: every basis column deflated")
	}

	ro := &ReducedOperator{full: g, v: basis.flat(), n: n, r: r, caps: caps}
	ro.red = ro.project(nil)
	ro.fac, err = factorMor(ro.red)
	if err != nil {
		return nil, fmt.Errorf("linalg: reduced operator: reduced system not SPD: %w", err)
	}
	ro.projErr = ro.estimateProjErr(inputs)
	return ro, nil
}

// autoShift picks the second expansion frequency as the geometric mean of
// the per-node conductance/capacitance rates — the characteristic frequency
// scale of the pencil, deterministic and O(n).
func autoShift(g *CSR, caps []float64) float64 {
	d := g.Diagonal()
	sum := 0.0
	cnt := 0
	for i, c := range caps {
		if c > 0 && d[i] > 0 {
			sum += math.Log(d[i] / c)
			cnt++
		}
	}
	if cnt == 0 {
		return 1
	}
	return math.Exp(sum / float64(cnt))
}

// morBasis accumulates orthonormal columns up to a cap.
type morBasis struct {
	cols [][]float64
	n    int
	cap  int
}

func newMorBasis(n, cap int) *morBasis {
	return &morBasis{n: n, cap: cap}
}

func (b *morBasis) size() int  { return len(b.cols) }
func (b *morBasis) full() bool { return len(b.cols) >= b.cap }

// expand generates one block moment: solves op⁻¹ applied to each source
// column (scaled by the diagonal weight, when non-nil), orthonormalizes the
// results against the basis and appends the survivors. The accepted columns
// are returned so the caller can continue the Krylov recurrence from them.
func (b *morBasis) expand(op Operator, src [][]float64, weight []float64, ws *Workspace) [][]float64 {
	var accepted [][]float64
	rhs := make([]float64, b.n)
	for _, s := range src {
		if b.full() {
			break
		}
		if weight == nil {
			copy(rhs, s)
		} else {
			for i := range rhs {
				rhs[i] = weight[i] * s[i]
			}
		}
		z, err := op.Solve(rhs, nil, nil, ws)
		if err != nil {
			continue
		}
		if col := b.orthonormalize(z); col != nil {
			accepted = append(accepted, col)
		}
	}
	return accepted
}

// orthonormalize runs twice-iterated modified Gram-Schmidt of z against the
// basis, returning the normalized column or nil when z deflates.
func (b *morBasis) orthonormalize(z []float64) []float64 {
	norm0 := Norm2(z)
	if norm0 == 0 || math.IsNaN(norm0) || math.IsInf(norm0, 0) {
		return nil
	}
	for pass := 0; pass < 2; pass++ {
		for _, q := range b.cols {
			AXPY(-Dot(q, z), q, z)
		}
	}
	norm := Norm2(z)
	if norm <= morDeflationTol*norm0 {
		return nil
	}
	Scale(1/norm, z)
	b.cols = append(b.cols, z)
	return z
}

// flat packs the basis column-major into one backing array.
func (b *morBasis) flat() []float64 {
	v := make([]float64, len(b.cols)*b.n)
	for j, col := range b.cols {
		copy(v[j*b.n:(j+1)*b.n], col)
	}
	return v
}

// project computes Vᵀ(A + diag(d))V for the operator's full matrix (d may
// be nil). O(r·nnz + n·r²) — paid once per reduction and once per distinct
// backward-Euler step size, never per step.
func (ro *ReducedOperator) project(d []float64) *Matrix {
	n, r := ro.n, ro.r
	red := NewMatrix(r, r)
	w := make([]float64, n)
	for a := 0; a < r; a++ {
		va := ro.v[a*n : (a+1)*n]
		ro.full.MulVec(va, w)
		if d != nil {
			for i := range w {
				w[i] += d[i] * va[i]
			}
		}
		for c := 0; c <= a; c++ {
			h := Dot(ro.v[c*n:(c+1)*n], w)
			red.Set(a, c, h)
			red.Set(c, a, h)
		}
	}
	return red
}

// estimateProjErr reports the worst relative residual ‖A·VÂ⁻¹Vᵀb − b‖/‖b‖
// over the input columns the basis was built from: an a-priori bound on how
// faithfully steady responses to the modeled inputs survive the projection.
func (ro *ReducedOperator) estimateProjErr(inputs [][]float64) float64 {
	ws := &Workspace{}
	x := make([]float64, ro.n)
	scratch := make([]float64, ro.n)
	worst := 0.0
	for _, b := range inputs {
		nb := Norm2(b)
		if nb == 0 {
			continue
		}
		ro.Solve(b, nil, x, ws)
		if res := ro.residual(b, x, scratch) / nb; res > worst {
			worst = res
		}
	}
	return worst
}

// residual returns ‖b − A·x‖₂ against the exact full-space matrix. scratch
// must have length Dim.
func (ro *ReducedOperator) residual(b, x, scratch []float64) float64 {
	ro.full.MulVec(x, scratch)
	var s float64
	for i, bi := range b {
		d := bi - scratch[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// RelativeResidual returns ‖b − A·x‖₂/‖b‖₂ computed against the exact
// full-space matrix — the a-posteriori check the stepping layer samples to
// decide whether the projection still holds. scratch must have length Dim.
func (ro *ReducedOperator) RelativeResidual(b, x, scratch []float64) float64 {
	nb := Norm2(b)
	if nb == 0 {
		return 0
	}
	return ro.residual(b, x, scratch) / nb
}

// Order returns the reduced dimension r.
func (ro *ReducedOperator) Order() int { return ro.r }

// ProjectionError returns the construction-time projection error estimate.
func (ro *ReducedOperator) ProjectionError() float64 { return ro.projErr }

// Dim returns the full-space dimension.
func (ro *ReducedOperator) Dim() int { return ro.n }

// Apply computes dst = A·x through the exact sparse matrix.
func (ro *ReducedOperator) Apply(x, dst []float64) { ro.full.MulVec(x, dst) }

// Diag returns the exact full-space diagonal.
func (ro *ReducedOperator) Diag() []float64 { return ro.full.Diagonal() }

// Iterative reports false: reduced solves are direct (pre-factored dense)
// and cannot stall. They are, however, approximate in the full space —
// callers gate them through RelativeResidual rather than refining.
func (ro *ReducedOperator) Iterative() bool { return false }

// Solve computes dst = V·Â⁻¹·Vᵀb: project the right-hand side, solve the
// pre-factored dense r×r system, expand. x0 is ignored (direct backends are
// warm-start-invariant; see Operator.SolveBatch). The per-call cost is
// O(n·r + r²) with no allocation when ws is provided.
func (ro *ReducedOperator) Solve(b, _, dst []float64, ws *Workspace) ([]float64, error) {
	if len(b) != ro.n {
		return nil, fmt.Errorf("linalg: reduced solve dimension %d, want %d", len(b), ro.n)
	}
	if dst == nil {
		dst = make([]float64, ro.n)
	}
	if ws == nil {
		ws = &Workspace{}
	}
	bh, xh, y := ws.reduced(ro.r)
	mulVT(ro.v, ro.n, ro.r, b, bh)
	ro.fac.solveInto(bh, xh, y)
	mulV(ro.v, ro.n, ro.r, xh, dst)
	return dst, nil
}

// SolveBatch solves the K right-hand sides column by column — the reduced
// solve is O(n·r + r²) with no factor traversal to amortize, so there is
// nothing a blocked path would save.
func (ro *ReducedOperator) SolveBatch(b, x0, dst [][]float64, ws *Workspace) ([][]float64, error) {
	if dst == nil {
		dst = make([][]float64, len(b))
	}
	if len(dst) != len(b) {
		return nil, fmt.Errorf("linalg: reduced batch shape: %d rhs, %d dst", len(b), len(dst))
	}
	for k := range b {
		var warm []float64
		if x0 != nil {
			warm = x0[k]
		}
		x, err := ro.Solve(b[k], warm, dst[k], ws)
		if err != nil {
			return nil, fmt.Errorf("linalg: reduced batch column %d: %w", k, err)
		}
		dst[k] = x
	}
	return dst, nil
}

// Shift returns the reduced operator for A + diag(d): the exact full matrix
// is shifted in CSR form (keeping Apply and residual checks exact) and the
// diagonal update is projected as Vᵀdiag(d)V onto the shared basis, then
// re-factored densely. O(n·r² + r³) per distinct shift — this is the
// "factorization" the rcnet per-dt cache amortizes.
func (ro *ReducedOperator) Shift(d []float64) (Operator, error) {
	if len(d) != ro.n {
		return nil, fmt.Errorf("linalg: reduced shift dimension %d, want %d", len(d), ro.n)
	}
	out := &ReducedOperator{
		full:    ro.full.Shifted(d),
		v:       ro.v,
		n:       ro.n,
		r:       ro.r,
		caps:    ro.caps,
		projErr: ro.projErr,
	}
	dhat := NewMatrix(ro.r, ro.r)
	addProjectedDiag(dhat, ro.v, ro.n, ro.r, d)
	out.red = NewMatrix(ro.r, ro.r)
	for i, base := range ro.red.Data {
		out.red.Data[i] = base + dhat.Data[i]
	}
	fac, err := factorMor(out.red)
	if err != nil {
		return nil, fmt.Errorf("linalg: reduced shift: %w", err)
	}
	out.fac = fac
	return out, nil
}

// addProjectedDiag accumulates Vᵀdiag(d)V into red.
func addProjectedDiag(red *Matrix, v []float64, n, r int, d []float64) {
	for a := 0; a < r; a++ {
		va := v[a*n : (a+1)*n]
		for c := 0; c <= a; c++ {
			vc := v[c*n : (c+1)*n]
			var h float64
			for i, di := range d {
				h += di * va[i] * vc[i]
			}
			red.Add(a, c, h)
			if c != a {
				red.Add(c, a, h)
			}
		}
	}
}

// mulVT computes bh = Vᵀb (r dot products over contiguous columns).
func mulVT(v []float64, n, r int, b, bh []float64) {
	for j := 0; j < r; j++ {
		col := v[j*n : (j+1)*n]
		var s0, s1, s2, s3 float64
		i := 0
		for ; i+3 < n; i += 4 {
			s0 += col[i] * b[i]
			s1 += col[i+1] * b[i+1]
			s2 += col[i+2] * b[i+2]
			s3 += col[i+3] * b[i+3]
		}
		for ; i < n; i++ {
			s0 += col[i] * b[i]
		}
		bh[j] = s0 + s1 + s2 + s3
	}
}

// mulV expands dst = V·xh, two columns per destination sweep to halve the
// store traffic on the stepping hot path.
func mulV(v []float64, n, r int, xh, dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	j := 0
	for ; j+1 < r; j += 2 {
		c0 := v[j*n : (j+1)*n]
		c1 := v[(j+1)*n : (j+2)*n]
		a0, a1 := xh[j], xh[j+1]
		for i := 0; i < n; i++ {
			dst[i] += a0*c0[i] + a1*c1[i]
		}
	}
	if j < r {
		AXPY(xh[j], v[j*n:(j+1)*n], dst)
	}
}

// morChol is a dense Cholesky factor specialized for the reduced hot path:
// lower triangle in row-major full storage, allocation-free solveInto.
type morChol struct {
	n int
	l []float64
}

// factorMor computes the Cholesky factor of the SPD matrix a (not modified).
func factorMor(a *Matrix) (*morChol, error) {
	n := a.Rows
	f := &morChol{n: n, l: make([]float64, n*n)}
	l := f.l
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		rj := l[j*n:]
		for k := 0; k < j; k++ {
			d -= rj[k] * rj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w: reduced pivot %d is %g", ErrNotSPD, j, d)
		}
		d = math.Sqrt(d)
		rj[j] = d
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			ri := l[i*n:]
			for k := 0; k < j; k++ {
				s -= ri[k] * rj[k]
			}
			ri[j] = s / d
		}
	}
	return f, nil
}

// solveInto solves L·Lᵀ·x = b using y as forward-substitution scratch.
// b, x and y must have length n; b is not modified.
func (f *morChol) solveInto(b, x, y []float64) {
	n, l := f.n, f.l
	for i := 0; i < n; i++ {
		s := b[i]
		ri := l[i*n:]
		for k := 0; k < i; k++ {
			s -= ri[k] * y[k]
		}
		y[i] = s / ri[i]
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*n+i] * x[k]
		}
		x[i] = s / l[i*n+i]
	}
}
