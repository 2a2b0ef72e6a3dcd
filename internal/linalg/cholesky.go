package linalg

import (
	"errors"
	"fmt"
	"sort"
)

// This file implements the sparse direct solver: an approximate-
// minimum-degree fill-reducing ordering (amd.go), symbolic analysis
// (elimination tree, exact column counts, supernode partition), a supernodal
// blocked LDLᵀ factorization with dense panel kernels, and blocked
// triangular solves for one or many right-hand sides. See DESIGN.md §7–§8.
//
// Two design decisions carry the solver:
//
//   - The split between symbolic and numeric phases: the symbolic analysis
//     depends only on the off-diagonal sparsity pattern, so a backward-Euler
//     operator (C/dt + A) derived via Shift — which touches only the
//     diagonal — reuses the ordering, elimination tree, supernode partition
//     and update schedule of the conductance operator and pays for a numeric
//     refactorization alone.
//   - Supernodes: consecutive columns with nested sparsity share one dense
//     panel, so both the factorization and every solve run dense
//     column-major kernels over contiguous memory and amortize each row-
//     index lookup across the panel width (and, in SolveBatch, across K
//     right-hand sides), instead of scattering entry by entry.

// ErrNotSPD is returned (wrapped) when an LDLᵀ factorization meets a
// non-positive pivot: the matrix is not positive definite, or is numerically
// singular.
var ErrNotSPD = errors.New("linalg: matrix is not symmetric positive definite")

// ErrCholeskyFill is returned (wrapped) by NewCholeskyOperator when the
// predicted factor fill exceeds the caller's cap. The construction aborts
// after the symbolic analysis, before any numeric work.
var ErrCholeskyFill = errors.New("linalg: Cholesky factor fill exceeds cap")

// ErrNotSymmetric is returned (wrapped) when NewCholeskyOperator is handed a
// structurally or numerically asymmetric matrix.
var ErrNotSymmetric = errors.New("linalg: matrix is not symmetric")

// NewCholeskyOperator orders, analyzes and factors an existing CSR matrix
// (which must be symmetric and must not be mutated afterwards) with an
// approximate-minimum-degree ordering and a supernodal blocked LDLᵀ
// factorization. Factorization happens eagerly, so non-SPD and singular
// systems are reported here. A positive maxFillRatio refuses, with
// ErrCholeskyFill, any matrix whose predicted nnz(L+D+Lᵀ) exceeds that
// multiple of nnz(A); pass 0 for no cap.
func NewCholeskyOperator(m *CSR, maxFillRatio float64) (*CholeskyOperator, error) {
	if err := checkSymmetric(m); err != nil {
		return nil, err
	}
	sym := analyzeCholesky(m)
	if maxFillRatio > 0 {
		if fill := sym.FillRatio(m); fill > maxFillRatio {
			return nil, fmt.Errorf("%w: predicted fill %.1f× exceeds cap %.1f× (nnz(L)=%d)",
				ErrCholeskyFill, fill, maxFillRatio, sym.nnzL)
		}
	}
	f, err := factorSupernodal(m, sym)
	if err != nil {
		return nil, err
	}
	return &CholeskyOperator{m: m, sym: sym, f: f}, nil
}

// checkSymmetric verifies exact structural and numeric symmetry. Rows of a
// CSR from NewCSR are sorted by column, so each upper-triangle entry is
// matched against its transpose by binary search: O(nnz·log(row len)).
func checkSymmetric(m *CSR) error {
	for i := 0; i < m.N; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			if j <= i {
				continue
			}
			lo, hi := m.RowPtr[j], m.RowPtr[j+1]
			p := lo + sort.SearchInts(m.ColIdx[lo:hi], i)
			if p >= hi || m.ColIdx[p] != i || m.Values[p] != m.Values[k] {
				return fmt.Errorf("%w: entry (%d,%d) has no equal transpose", ErrNotSymmetric, i, j)
			}
		}
	}
	return nil
}

// maxPanelWidth caps the supernode width. Wider panels amortize more of
// the factorization's per-panel bookkeeping but grow the dense O(w²·rows)
// panel work and the frontal working set; 32 columns keeps even the dense
// root supernode of a 100k-node grid inside L2. See DESIGN.md §8.2.
const maxPanelWidth = 32

// snRelax bounds relaxed amalgamation: a supernode merges into its
// assembly-tree parent only while the explicit zeros introduced stay below
// this fraction of the merged panel. Thermal networks factor into thousands
// of 1–2 column fundamental supernodes (≈6 entries per column), where the
// factorization's per-panel bookkeeping costs as much as the arithmetic;
// the zeros are confined to the panels (solve paths traverse zero-dropped
// compressed views), so relaxation taxes only the numeric factorization it
// speeds up. See DESIGN.md §8.2.
const snRelax = 0.25

// cholSymbolic is the reusable symbolic analysis of one sparsity pattern:
// the fill-reducing permutation, the elimination tree of the permuted
// matrix, the factor's column counts, and the supernode partition with its
// update schedule. It is immutable once built and shared by every numeric
// factorization of a matrix with the same off-diagonal pattern (the
// conductance operator and all its backward-Euler shifts).
type cholSymbolic struct {
	n      int
	perm   []int // perm[k] = original index of the k-th pivot
	iperm  []int // inverse: iperm[perm[k]] = k
	parent []int // elimination tree of P·A·Pᵀ
	colPtr []int // factor column pointers, len n+1 (strictly-lower entries)
	nnzL   int   // total strictly-lower entries in L

	// Supernode partition: supernode s covers permuted columns
	// [snStart[s], snStart[s+1]); its columns share the strictly-below row
	// pattern rows[s] (ascending). Panels live in one flat value array at
	// panelPtr[s], column-major, (width + len(rows)) rows per column.
	snStart  []int32
	snOf     []int32   // permuted column → supernode
	rows     [][]int32 // per-supernode below-diagonal row pattern
	panelPtr []int
	panelLen int

	// slotCap is the total strictly-lower panel slot count (true entries
	// plus relaxation zeros) — the capacity bound for a factor's
	// compressed-column view.
	slotCap int
	maxW    int // widest panel
	maxNR   int // tallest panel (width + below rows)

	// updaters[s] lists the supernodes whose row pattern intersects s's
	// columns, ascending — exactly the panels whose outer products must be
	// subtracted from s's panel, applied in this (deterministic) order.
	updaters [][]int32
}

// FillRatio reports nnz(L+D+Lᵀ) / nnz(A): 1.0 means no fill at all.
func (s *cholSymbolic) FillRatio(m *CSR) float64 {
	return float64(2*s.nnzL+s.n) / float64(max(m.NNZ(), 1))
}

// fillOrder picks the fill-reducing ordering: quotient-graph approximate
// minimum degree (amd.go), which runs in near-linear memory at any size.
// (PR 4's dense-bitset greedy minimum degree was capped at 4096 unknowns;
// rcmOrder survives as the quality baseline in the ordering tests.)
func fillOrder(m *CSR) []int {
	return amdOrder(m)
}

// analyzeCholesky runs the symbolic phase: fill-reducing ordering,
// elimination tree, exact per-column counts (the classic refinement walk:
// for every strictly-upper entry of permuted column k, climb the tree until
// reaching a node already marked this step), then the supernode partition,
// per-supernode row patterns and the update schedule.
func analyzeCholesky(m *CSR) *cholSymbolic {
	n := m.N
	perm := postorderPerm(m, fillOrder(m))
	iperm := make([]int, n)
	for k, p := range perm {
		iperm[p] = k
	}
	parent := make([]int, n)
	flag := make([]int, n)
	counts := make([]int, n)
	for i := range flag {
		flag[i] = -1
	}
	for k := 0; k < n; k++ {
		parent[k] = -1
		flag[k] = k
		row := perm[k]
		for p := m.RowPtr[row]; p < m.RowPtr[row+1]; p++ {
			i := iperm[m.ColIdx[p]]
			for ; i < k && flag[i] != k; i = parent[i] {
				if parent[i] == -1 {
					parent[i] = k
				}
				counts[i]++
				flag[i] = k
			}
		}
	}
	colPtr := make([]int, n+1)
	for i := 0; i < n; i++ {
		colPtr[i+1] = colPtr[i] + counts[i]
	}
	sym := &cholSymbolic{n: n, perm: perm, iperm: iperm, parent: parent, colPtr: colPtr, nnzL: colPtr[n]}
	sym.partitionSupernodes(m, counts)
	return sym
}

// postorderPerm relabels a fill-reducing permutation along a postorder of
// its elimination tree. A postorder is an equivalent elimination order (the
// tree, the fill and the factor values up to relabeling are unchanged), but
// it makes every subtree — in particular every chain — occupy consecutive
// columns, which is what lets fundamental supernodes grow and relaxed
// amalgamation find its parent right next door. Deterministic: children are
// visited in ascending order, components in index order.
func postorderPerm(m *CSR, perm []int) []int {
	n := m.N
	if n <= 1 {
		return perm
	}
	iperm := make([]int, n)
	for k, p := range perm {
		iperm[p] = k
	}
	// Elimination tree by the ancestor-shortcut walk (Liu): near-linear.
	parent := make([]int, n)
	ancestor := make([]int, n)
	for k := 0; k < n; k++ {
		parent[k] = -1
		ancestor[k] = -1
		row := perm[k]
		for p := m.RowPtr[row]; p < m.RowPtr[row+1]; p++ {
			i := iperm[m.ColIdx[p]]
			for i != -1 && i < k {
				next := ancestor[i]
				ancestor[i] = k
				if next == -1 {
					parent[i] = k
				}
				i = next
			}
		}
	}
	// Children lists in ascending order (iterate k descending, push front).
	childHead := make([]int32, n)
	childNext := make([]int32, n)
	for i := range childHead {
		childHead[i] = -1
	}
	for k := n - 1; k >= 0; k-- {
		if p := parent[k]; p >= 0 {
			childNext[k] = childHead[p]
			childHead[p] = int32(k)
		}
	}
	// Iterative postorder DFS over every root.
	post := make([]int, 0, n)
	stack := make([]int32, 0, 64)
	expanded := make([]bool, n)
	for r := n - 1; r >= 0; r-- { // roots pushed descending → visited ascending
		if parent[r] == -1 {
			stack = append(stack, int32(r))
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		if expanded[v] {
			stack = stack[:len(stack)-1]
			post = append(post, int(v))
			continue
		}
		expanded[v] = true
		// Push children in descending order so they pop ascending.
		from := len(stack)
		for c := childHead[v]; c >= 0; c = childNext[c] {
			stack = append(stack, c)
		}
		for l, r := from, len(stack)-1; l < r; l, r = l+1, r-1 {
			stack[l], stack[r] = stack[r], stack[l]
		}
	}
	out := make([]int, n)
	for i, k := range post {
		out[i] = perm[k]
	}
	return out
}

// partitionSupernodes detects fundamental supernodes (column j extends the
// supernode of j−1 when j is j−1's elimination-tree parent and the column
// counts nest exactly — then the two columns share their below-diagonal
// pattern), materializes each supernode's row pattern with a second
// refinement walk, relaxes the partition by amalgamating small supernodes
// into their assembly-tree parents, and builds the deterministic update
// schedule.
func (sym *cholSymbolic) partitionSupernodes(m *CSR, counts []int) {
	n := sym.n
	// Fundamental boundaries.
	fStart := []int32{0}
	for j := 1; j < n; j++ {
		w := j - int(fStart[len(fStart)-1])
		if sym.parent[j-1] == j && counts[j-1] == counts[j]+1 && w < maxPanelWidth {
			continue
		}
		fStart = append(fStart, int32(j))
	}
	fStart = append(fStart, int32(n))
	fs := len(fStart) - 1
	fOf := make([]int32, n)
	for s := 0; s < fs; s++ {
		for j := fStart[s]; j < fStart[s+1]; j++ {
			fOf[j] = int32(s)
		}
	}

	// Fundamental row patterns: re-run the refinement walk; when the walk
	// visits the last column of a supernode for row k, k is in that
	// supernode's shared below pattern. Rows arrive in ascending k order.
	fRows := make([][]int32, fs)
	for s := 0; s < fs; s++ {
		last := int(fStart[s+1]) - 1
		fRows[s] = make([]int32, 0, counts[last])
	}
	lastOf := make([]bool, n)
	for s := 0; s < fs; s++ {
		lastOf[fStart[s+1]-1] = true
	}
	flag := make([]int, n)
	for i := range flag {
		flag[i] = -1
	}
	for k := 0; k < n; k++ {
		flag[k] = k
		row := sym.perm[k]
		for p := m.RowPtr[row]; p < m.RowPtr[row+1]; p++ {
			i := sym.iperm[m.ColIdx[p]]
			for ; i < k && flag[i] != k; i = sym.parent[i] {
				if lastOf[i] {
					fRows[fOf[i]] = append(fRows[fOf[i]], int32(k))
				}
				flag[i] = k
			}
		}
	}

	// Relaxed amalgamation, left to right: merge the running supernode into
	// the next one exactly when the next owns the running pattern's first
	// below-row (its assembly-tree parent — then by the column-nesting
	// theorem the merged below pattern is precisely the next supernode's,
	// so every row list stays a true column pattern and the update-schedule
	// containment argument is untouched), the width cap holds, and the
	// explicit zeros introduced stay under snRelax of the merged panel.
	// Merged columns whose true pattern is smaller than the panel simply
	// carry exact-zero factor entries: values, solves and batch/sequential
	// parity are unchanged, only the flop count grows — the price paid for
	// panels wide enough to amortize their bookkeeping.
	trueNNZ := func(s int) int {
		w := int(fStart[s+1] - fStart[s])
		return w*(w-1)/2 + w*len(fRows[s])
	}
	sym.snStart = append(sym.snStart, 0)
	sym.rows = sym.rows[:0]
	curW := int(fStart[1] - fStart[0])
	curRows := fRows[0]
	curTrue := trueNNZ(0)
	for t := 1; t < fs; t++ {
		wNext := int(fStart[t+1] - fStart[t])
		mergedW := curW + wNext
		canMerge := len(curRows) > 0 && curRows[0] < fStart[t+1] && mergedW <= maxPanelWidth
		if canMerge {
			panel := mergedW*(mergedW-1)/2 + mergedW*len(fRows[t])
			mergedTrue := curTrue + trueNNZ(t)
			canMerge = float64(panel-mergedTrue) <= snRelax*float64(panel)
		}
		if canMerge {
			curW = mergedW
			curRows = fRows[t]
			curTrue += trueNNZ(t)
			continue
		}
		sym.snStart = append(sym.snStart, fStart[t])
		sym.rows = append(sym.rows, curRows)
		curW = wNext
		curRows = fRows[t]
		curTrue = trueNNZ(t)
	}
	sym.snStart = append(sym.snStart, int32(n))
	sym.rows = append(sym.rows, curRows)
	ns := len(sym.snStart) - 1
	sym.snOf = make([]int32, n)
	for s := 0; s < ns; s++ {
		for j := sym.snStart[s]; j < sym.snStart[s+1]; j++ {
			sym.snOf[j] = int32(s)
		}
	}

	// Capacity of a factor's compressed-column view.
	sym.slotCap = 0
	for s := 0; s < ns; s++ {
		c0, c1 := int(sym.snStart[s]), int(sym.snStart[s+1])
		w := c1 - c0
		sym.slotCap += w*(w-1)/2 + w*len(sym.rows[s])
	}

	// Panel offsets and scratch bounds.
	sym.panelPtr = make([]int, ns+1)
	for s := 0; s < ns; s++ {
		w := int(sym.snStart[s+1] - sym.snStart[s])
		nb := len(sym.rows[s])
		nr := w + nb
		sym.panelPtr[s+1] = sym.panelPtr[s] + nr*w
		if w > sym.maxW {
			sym.maxW = w
		}
		if nr > sym.maxNR {
			sym.maxNR = nr
		}
	}
	sym.panelLen = sym.panelPtr[ns]

	// Update schedule: supernode d updates every supernode owning one of
	// its rows in column range. Rows are sorted and supernodes are
	// contiguous column ranges, so same-target rows are consecutive;
	// iterating d ascending leaves each updaters list ascending.
	sym.updaters = make([][]int32, ns)
	for d := 0; d < ns; d++ {
		lastS := int32(-1)
		for _, r := range sym.rows[d] {
			if s := sym.snOf[r]; s != lastS {
				sym.updaters[s] = append(sym.updaters[s], int32(d))
				lastS = s
			}
		}
	}
}

// Supernodes returns the number of panels in the partition.
func (s *cholSymbolic) Supernodes() int { return len(s.snStart) - 1 }

// cholFactor is one numeric supernodal LDLᵀ factorization over a shared
// symbolic analysis: all panels in one flat column-major array, plus a
// compressed copy of the nonzero entries that the sweep kernels traverse —
// panel traversal only pays off when K columns share it, and the compression
// drops every relaxation zero from the solve flop count. d holds the pivots of D,
// invD their inverses (for the solve's fused diagonal scale). L is unit-
// lower-triangular; the diagonal slots inside panels are scratch.
type cholFactor struct {
	vals []float64
	c    *compFactor
	d    []float64
	invD []float64
}

// snScratch is the factorization's scratch: the global-row → panel-row map
// for the current target panel, the scalar-tail accumulation buffer and the
// update tiles' scale-factor buffer.
type snScratch struct {
	rowLoc []int32
	wbuf   []float64
	abuf   []float64
}

// factorSupernodal runs the numeric phase: supernode by supernode, in column
// order, it assembles the panel from the permuted matrix, subtracts the
// outer-product updates of earlier panels through the 4×4 register-blocked
// tile kernel, and factors the panel with the rank-4 blocked dense LDLᵀ
// kernel. Every output entry accumulates its updates in one deterministic
// order, so the factor's bits depend on the matrix alone. The first failing
// pivot, the lowest column, is the one reported.
func factorSupernodal(m *CSR, sym *cholSymbolic) (*cholFactor, error) {
	n := sym.n
	f := &cholFactor{
		vals: make([]float64, sym.panelLen),
		d:    make([]float64, n),
		invD: make([]float64, n),
	}
	ws := &snScratch{
		rowLoc: make([]int32, n),
		wbuf:   make([]float64, sym.maxNR),
		abuf:   make([]float64, 4*max(sym.maxW, 1)),
	}
	for s := int32(0); int(s) < sym.Supernodes(); s++ {
		factorPanelCols(m, sym, f, s, ws)
		if err := densePanelLDL(sym, f, s); err != nil {
			return nil, err
		}
	}
	f.compress(sym)
	return f, nil
}

// compress mirrors the finished panels into the compressed views the sweep
// kernels traverse, dropping zero entries — both the explicit zeros
// relaxation introduced (so they cost panel flops only where the
// factorization amortizes them) and any true-pattern entries that cancelled
// to zero in this particular factor (skipping a zero subtraction never
// changes a solve).
func (f *cholFactor) compress(sym *cholSymbolic) {
	cptr := make([]int32, sym.n+1)
	crows := make([]int32, 0, sym.slotCap)
	cvals := make([]float64, 0, sym.slotCap)
	ns := sym.Supernodes()
	for s := 0; s < ns; s++ {
		c0 := int(sym.snStart[s])
		c1 := int(sym.snStart[s+1])
		w := c1 - c0
		rows := sym.rows[s]
		nr := w + len(rows)
		P := f.vals[sym.panelPtr[s]:]
		for j := 0; j < w; j++ {
			col := P[j*nr : (j+1)*nr]
			for i := j + 1; i < w; i++ {
				if v := col[i]; v != 0 {
					crows = append(crows, int32(c0+i))
					cvals = append(cvals, v)
				}
			}
			for r, v := range col[w:] {
				if v != 0 {
					crows = append(crows, rows[r])
					cvals = append(cvals, v)
				}
			}
			cptr[c0+j+1] = int32(len(crows))
		}
	}
	// Row-form transpose for the forward sweep: entry lists per row, columns
	// ascending (deterministic counting sort). A gather-form forward runs at
	// the backward sweep's speed — independent loads into one accumulator —
	// where the column-scatter form stalls on store-to-load forwarding.
	nnz := len(crows)
	rptr := make([]int32, sym.n+1)
	for _, r := range crows {
		rptr[r+1]++
	}
	for i := 0; i < sym.n; i++ {
		rptr[i+1] += rptr[i]
	}
	rcols := make([]int32, nnz)
	rvals := make([]float64, nnz)
	next := make([]int32, sym.n)
	copy(next, rptr[:sym.n])
	for j := 0; j < sym.n; j++ {
		p1 := cptr[j+1]
		for p := cptr[j]; p < p1; p++ {
			r := crows[p]
			q := next[r]
			next[r]++
			rcols[q] = int32(j)
			rvals[q] = cvals[p]
		}
	}
	f.c = &compFactor{
		cptr: cptr, crows: crows, cvals: cvals,
		rptr: rptr, rcols: rcols, rvals: rvals,
	}
}

// factorPanelCols assembles supernode s's panel from the permuted matrix and
// applies every scheduled outer-product update to it. All reads from other
// panels are to earlier, already factored supernodes.
func factorPanelCols(m *CSR, sym *cholSymbolic, f *cholFactor, s int32, ws *snScratch) {
	c0 := int(sym.snStart[s])
	c1 := int(sym.snStart[s+1])
	w := c1 - c0
	rows := sym.rows[s]
	nr := w + len(rows)
	P := f.vals[sym.panelPtr[s] : sym.panelPtr[s]+nr*w]

	rowLoc := ws.rowLoc
	for j := c0; j < c1; j++ {
		rowLoc[j] = int32(j - c0)
	}
	for q, r := range rows {
		rowLoc[r] = int32(w + q)
	}

	// Assemble the lower part of the permuted matrix columns.
	for j := c0; j < c1; j++ {
		col := P[(j-c0)*nr:]
		row := sym.perm[j]
		for p := m.RowPtr[row]; p < m.RowPtr[row+1]; p++ {
			if i := sym.iperm[m.ColIdx[p]]; i >= j {
				col[rowLoc[i]] += m.Values[p]
			}
		}
	}

	// Outer-product updates from earlier panels, ascending supernode order:
	// 4-column register-blocked tiles, scalar columns on the tail. Both
	// paths accumulate each output entry over ascending pivots and write it
	// once, so tiling never changes the result bits.
	lo32, hi32 := int32(c0), int32(c1)
	for _, d := range sym.updaters[s] {
		dc0 := int(sym.snStart[d])
		dw := int(sym.snStart[d+1]) - dc0
		rd := sym.rows[d]
		dnr := dw + len(rd)
		Pd := f.vals[sym.panelPtr[d]:]
		dpiv := f.d[dc0 : dc0+dw]
		q := lowerBound32(rd, lo32)
		end := lowerBound32(rd, hi32)
		for ; end-q >= 4; q += 4 {
			updateTile4(P, nr, Pd, dnr, dw, rd, q, rowLoc, dpiv, ws.abuf)
		}
		for ; q < end; q++ {
			// Target column rows[d][q] of this panel; all of d's rows from q
			// on land inside the panel (pattern nesting).
			cj := int(rd[q]) - c0
			ln := len(rd) - q
			wb := ws.wbuf[:ln]
			for x := range wb {
				wb[x] = 0
			}
			for t := 0; t < dw; t++ {
				src := Pd[t*dnr+dw+q : t*dnr+dw+len(rd)]
				alpha := src[0] * dpiv[t] // L[j,t]·d_t
				for x, v := range src {
					wb[x] += v * alpha
				}
			}
			dst := P[cj*nr:]
			for x, v := range wb {
				dst[rowLoc[rd[q+x]]] -= v
			}
		}
	}
}

// lowerBound32 returns the first index of a (sorted ascending) with
// a[i] >= x.
func lowerBound32(a []int32, x int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// CholeskyOperator is a sparse direct supernodal LDLᵀ-factored symmetric
// positive-definite matrix. Immutable after construction and safe for
// concurrent solves (per-goroutine scratch comes from the Workspace).
type CholeskyOperator struct {
	m   *CSR
	sym *cholSymbolic
	f   *cholFactor
}

// NNZL returns the strictly-lower-triangular entry count of the factor.
func (c *CholeskyOperator) NNZL() int { return c.sym.nnzL }

// Supernodes returns the number of panels in the factor.
func (c *CholeskyOperator) Supernodes() int { return c.sym.Supernodes() }

// MaxPanelRows returns the tallest panel's row count (supernode width plus
// below-diagonal rows) — the working-set headline of the factor.
func (c *CholeskyOperator) MaxPanelRows() int { return c.sym.maxNR }

// Apply computes dst = A·x. dst must have length n and may not alias x.
func (c *CholeskyOperator) Apply(x, dst []float64) {
	if len(dst) != c.m.N {
		panic("linalg: cholesky Apply dimension mismatch")
	}
	c.m.MulVec(x, dst)
}

// Solve solves A·x = b: permute, forward-substitute through L in row-
// gather form, scale by D⁻¹, back-substitute through Lᵀ, permute back (the
// sweepSolve kernel). dst, when non-nil, receives the solution and may
// alias b; ws is optional per-goroutine scratch (nil allocates).
// Allocation-free when both dst and ws are provided.
func (c *CholeskyOperator) Solve(b, dst []float64, ws *Workspace) []float64 {
	n := c.m.N
	if len(b) != n {
		panic("linalg: cholesky Solve dimension mismatch")
	}
	if ws == nil {
		ws = &Workspace{}
	}
	if dst == nil {
		dst = make([]float64, n)
	}
	y := ws.direct(n)
	sweepSolve(c.f.c, c.sym.perm, c.f.invD, y, b, dst)
	ws.KernelSolves[0]++
	return dst
}

// SolveBatch solves A·X = B for K = len(b) right-hand sides through the
// widest applicable interleaved sweep kernels — 8 per factor traversal; a
// remainder of 5–7 as one 8-wide traversal, of 4 as one 4-wide, of 1–3
// through the single-column path (31 → 8+8+8+(7 run as 8)) — so a K-wide
// lockstep batch pays ⌈K/8⌉-ish traversals instead of K. A padded
// remainder's spare columns re-solve its first right-hand side into
// workspace scratch and are discarded. Each column's arithmetic — entry
// order, fused permutes, fused D⁻¹ — is exactly the single Solve kernel's,
// so batched and sequential results are bit-identical; batching changes
// memory traffic, never arithmetic. dst (or any of its columns) may be nil;
// dst[k] may alias b[k] (every sweep reads all of b before it writes x).
// Allocation-free when dst and ws are provided.
func (c *CholeskyOperator) SolveBatch(b, dst [][]float64, ws *Workspace) [][]float64 {
	n := c.m.N
	kk := len(b)
	if kk == 0 {
		return dst
	}
	for _, bk := range b {
		if len(bk) != n {
			panic("linalg: cholesky SolveBatch dimension mismatch")
		}
	}
	if ws == nil {
		ws = &Workspace{}
	}
	if dst == nil {
		dst = make([][]float64, kk)
	}
	for k := range dst {
		if dst[k] == nil {
			dst[k] = make([]float64, n)
		}
	}
	k := 0
	for ; kk-k >= 8; k += 8 {
		c.solveChunk(b[k:k+8], dst[k:k+8], ws)
	}
	switch r := kk - k; {
	case r > 4:
		// One 8-wide traversal costs less than a 4-wide one plus 1–3
		// single ones.
		bs, xs := ws.padTo8(b[k:], dst[k:], n)
		c.solveChunk(bs, xs, ws)
		k = kk
	case r == 4:
		c.solveChunk(b[k:k+4], dst[k:k+4], ws)
		k += 4
	}
	for ; k < kk; k++ {
		c.Solve(b[k], dst[k], ws)
	}
	return dst
}

// solveChunk solves len(bs) ∈ {4, 8} right-hand sides through one K-wide
// sweep kernel invocation.
func (c *CholeskyOperator) solveChunk(bs, xs [][]float64, ws *Workspace) {
	kw := len(bs)
	yb := ws.batchBuf(c.m.N * kw)
	sweepSolveK(c.f.c, c.sym.perm, c.f.invD, yb, bs, xs)
	ws.KernelSolves[kernelWidthIndex(kw)]++
}

// Shift returns the factored A + diag(d), sharing no mutable state with the
// receiver. This is how backward-Euler operators (C/dt + A) are derived from
// a conductance operator. The shift touches only the diagonal, so the
// returned operator reuses the receiver's symbolic analysis (ordering,
// elimination tree, supernode partition, update schedule) and pays for a
// numeric refactorization only. This is the factor-cache contract
// backward-Euler stepping relies on.
func (c *CholeskyOperator) Shift(diag []float64) (*CholeskyOperator, error) {
	if len(diag) != c.m.N {
		return nil, fmt.Errorf("linalg: Shift dimension mismatch %d vs %d", c.m.N, len(diag))
	}
	m2 := c.m.Shifted(diag)
	f, err := factorSupernodal(m2, c.sym)
	if err != nil {
		return nil, err
	}
	return &CholeskyOperator{m: m2, sym: c.sym, f: f}, nil
}
