package linalg

import "fmt"

// Register-blocked numeric kernels for the supernodal factorization and the
// batched triangular solves (DESIGN.md §9). Two families live here:
//
//   - Factor-side: the 4×4 outer-product micro-kernel applied by the
//     left-looking panel update (updateTile4) and the rank-4 blocked dense
//     in-panel LDLᵀ (densePanelLDL). Both keep the per-entry operation
//     sequence of the scalar kernels — every output entry accumulates its
//     pivot contributions in ascending order and is written once — so the
//     factor is bit-identical however the panel work is tiled or split
//     across workers.
//   - Solve-side: the interleaved K-wide forward/backward sweeps
//     (sweepSolve, sweep4, sweep8, sweep16).

// compFactor is the zero-dropped compressed view of a finished factor the
// sweeps traverse: column form (backward sweep) and row-gather form
// (forward sweep).
type compFactor struct {
	cptr  []int32
	crows []int32
	cvals []float64
	rptr  []int32
	rcols []int32
	rvals []float64
}

// --- factor-side kernels ---

// updateTile4 subtracts supernode d's outer-product contribution to four
// consecutive target columns rd[q..q+3] of panel P. The four columns form a
// trapezoid: a 6-entry triangular fringe plus a shared rectangle processed
// as 4×4 register blocks, so each source value Pd[t][x] and each rowLoc
// lookup is loaded once per four accumulator columns instead of once per
// column. ab must have room for 4·dw scale factors.
//
// Per entry this performs exactly the scalar path's operations — alpha
// products, ascending-t accumulation, one subtraction — so tiled, scalar and
// split-panel updates agree to the last bit.
func updateTile4(P []float64, nr int, Pd []float64, dnr, dw int, rd []int32, q int, rowLoc []int32, dpiv, ab []float64) {
	nrd := len(rd)
	// ab[4t+c] = L[target_c, t]·d_t: the scalar path's alpha, one per
	// (pivot, target-column) pair.
	for t := 0; t < dw; t++ {
		off := t*dnr + dw + q
		row := Pd[off : off+4 : off+4]
		dt := dpiv[t]
		ab[4*t+0] = row[0] * dt
		ab[4*t+1] = row[1] * dt
		ab[4*t+2] = row[2] * dt
		ab[4*t+3] = row[3] * dt
	}
	d0 := P[int(rowLoc[rd[q]])*nr:]
	d1 := P[int(rowLoc[rd[q+1]])*nr:]
	d2 := P[int(rowLoc[rd[q+2]])*nr:]
	d3 := P[int(rowLoc[rd[q+3]])*nr:]
	// Triangular fringe: rows q+c..q+2 of columns 0..2 (column c starts at
	// its own diagonal row q+c; the rectangle below starts at row q+3).
	dst := [3][]float64{d0, d1, d2}
	for c := 0; c < 3; c++ {
		dc := dst[c]
		for x := q + c; x < q+3; x++ {
			var s float64
			for t := 0; t < dw; t++ {
				s += Pd[t*dnr+dw+x] * ab[4*t+c]
			}
			dc[rowLoc[rd[x]]] -= s
		}
	}
	// Shared rectangle in 4×4 register blocks: 8 loads feed 16 multiply-adds.
	x := q + 3
	for ; x+4 <= nrd; x += 4 {
		r0 := rowLoc[rd[x]]
		r1 := rowLoc[rd[x+1]]
		r2 := rowLoc[rd[x+2]]
		r3 := rowLoc[rd[x+3]]
		var c00, c01, c02, c03 float64
		var c10, c11, c12, c13 float64
		var c20, c21, c22, c23 float64
		var c30, c31, c32, c33 float64
		for t := 0; t < dw; t++ {
			off := t*dnr + dw + x
			src := Pd[off : off+4 : off+4]
			a := ab[4*t : 4*t+4 : 4*t+4]
			v0, v1, v2, v3 := src[0], src[1], src[2], src[3]
			a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
			c00 += v0 * a0
			c01 += v0 * a1
			c02 += v0 * a2
			c03 += v0 * a3
			c10 += v1 * a0
			c11 += v1 * a1
			c12 += v1 * a2
			c13 += v1 * a3
			c20 += v2 * a0
			c21 += v2 * a1
			c22 += v2 * a2
			c23 += v2 * a3
			c30 += v3 * a0
			c31 += v3 * a1
			c32 += v3 * a2
			c33 += v3 * a3
		}
		d0[r0] -= c00
		d0[r1] -= c10
		d0[r2] -= c20
		d0[r3] -= c30
		d1[r0] -= c01
		d1[r1] -= c11
		d1[r2] -= c21
		d1[r3] -= c31
		d2[r0] -= c02
		d2[r1] -= c12
		d2[r2] -= c22
		d2[r3] -= c32
		d3[r0] -= c03
		d3[r1] -= c13
		d3[r2] -= c23
		d3[r3] -= c33
	}
	// Row remainder: one source row across the four columns.
	for ; x < nrd; x++ {
		r := rowLoc[rd[x]]
		var s0, s1, s2, s3 float64
		for t := 0; t < dw; t++ {
			v := Pd[t*dnr+dw+x]
			s0 += v * ab[4*t+0]
			s1 += v * ab[4*t+1]
			s2 += v * ab[4*t+2]
			s3 += v * ab[4*t+3]
		}
		d0[r] -= s0
		d1[r] -= s1
		d2[r] -= s2
		d3[r] -= s3
	}
}

// densePanelLDL runs the dense left-looking LDLᵀ factorization of one
// assembled, fully updated panel, with the trailing update blocked four
// pivot columns at a time (a rank-4 fused GEMV: four column loads and four
// multiply-adds per output element). Always executed by exactly one worker
// per panel, after all update chunks of that panel have completed.
func densePanelLDL(sym *cholSymbolic, f *cholFactor, s int32) error {
	c0 := int(sym.snStart[s])
	w := int(sym.snStart[s+1]) - c0
	nr := w + len(sym.rows[s])
	P := f.vals[sym.panelPtr[s] : sym.panelPtr[s]+nr*w]
	for j := 0; j < w; j++ {
		colj := P[j*nr : (j+1)*nr]
		t := 0
		for ; t+4 <= j; t += 4 {
			ct0 := P[t*nr : (t+1)*nr]
			ct1 := P[(t+1)*nr : (t+2)*nr]
			ct2 := P[(t+2)*nr : (t+3)*nr]
			ct3 := P[(t+3)*nr : (t+4)*nr]
			a0 := ct0[j] * f.d[c0+t]
			a1 := ct1[j] * f.d[c0+t+1]
			a2 := ct2[j] * f.d[c0+t+2]
			a3 := ct3[j] * f.d[c0+t+3]
			for i := j; i < nr; i++ {
				colj[i] -= ct0[i]*a0 + ct1[i]*a1 + ct2[i]*a2 + ct3[i]*a3
			}
		}
		for ; t < j; t++ {
			colt := P[t*nr : (t+1)*nr]
			alpha := colt[j] * f.d[c0+t]
			for i := j; i < nr; i++ {
				colj[i] -= colt[i] * alpha
			}
		}
		dj := colj[j]
		if dj <= 0 {
			return fmt.Errorf("%w: pivot %d (node %d) is %g", ErrNotSPD, c0+j, sym.perm[c0+j], dj)
		}
		f.d[c0+j] = dj
		inv := 1 / dj
		f.invD[c0+j] = inv
		for i := j + 1; i < nr; i++ {
			colj[i] *= inv
		}
	}
	return nil
}

// --- solve-side kernels ---

// sweepSolve runs the fused single-RHS forward/backward sweeps over a
// compressed factor: permute, forward-substitute in row-gather form, scale
// by D⁻¹, back-substitute over the columns, permute back. dst may alias b
// (the forward sweep finishes reading b before the backward sweep writes
// dst).
func sweepSolve(cf *compFactor, perm []int, invD, y, b, dst []float64) {
	n := len(perm)
	rptr, rcols, rvals := cf.rptr, cf.rcols, cf.rvals
	for j := 0; j < n; j++ {
		sum := b[perm[j]]
		p1 := rptr[j+1]
		for p := rptr[j]; p < p1; p++ {
			sum -= rvals[p] * y[rcols[p]]
		}
		y[j] = sum
	}
	cptr, crows, cvals := cf.cptr, cf.crows, cf.cvals
	for j := n - 1; j >= 0; j-- {
		sum := y[j] * invD[j]
		p1 := cptr[j+1]
		for p := cptr[j]; p < p1; p++ {
			sum -= cvals[p] * y[crows[p]]
		}
		y[j] = sum
		dst[perm[j]] = sum
	}
}

// sweep4 solves four right-hand sides per factor traversal: the working
// vectors interleave (yb[4j+k] is unknown j of system k), so every factor
// entry and index loads once and feeds four register accumulators.
// Per-column arithmetic is identical to sweepSolve.
func sweep4(cf *compFactor, perm []int, invD, yb []float64, bs, xs [][]float64) {
	n := len(perm)
	b0, b1, b2, b3 := bs[0], bs[1], bs[2], bs[3]
	x0, x1, x2, x3 := xs[0], xs[1], xs[2], xs[3]
	rptr, rcols, rvals := cf.rptr, cf.rcols, cf.rvals
	for j := 0; j < n; j++ {
		pj := perm[j]
		s0, s1, s2, s3 := b0[pj], b1[pj], b2[pj], b3[pj]
		p1 := rptr[j+1]
		for p := rptr[j]; p < p1; p++ {
			ri := int(rcols[p]) * 4
			v := rvals[p]
			s0 -= v * yb[ri]
			s1 -= v * yb[ri+1]
			s2 -= v * yb[ri+2]
			s3 -= v * yb[ri+3]
		}
		o := j * 4
		yb[o], yb[o+1], yb[o+2], yb[o+3] = s0, s1, s2, s3
	}
	cptr, crows, cvals := cf.cptr, cf.crows, cf.cvals
	for j := n - 1; j >= 0; j-- {
		o := j * 4
		d := invD[j]
		s0, s1, s2, s3 := yb[o]*d, yb[o+1]*d, yb[o+2]*d, yb[o+3]*d
		p1 := cptr[j+1]
		for p := cptr[j]; p < p1; p++ {
			ri := int(crows[p]) * 4
			v := cvals[p]
			s0 -= v * yb[ri]
			s1 -= v * yb[ri+1]
			s2 -= v * yb[ri+2]
			s3 -= v * yb[ri+3]
		}
		yb[o], yb[o+1], yb[o+2], yb[o+3] = s0, s1, s2, s3
		pj := perm[j]
		x0[pj], x1[pj], x2[pj], x3[pj] = s0, s1, s2, s3
	}
}

// sweep8 is the 8-wide interleaved sweep: one factor traversal per eight
// right-hand sides, eight register accumulators.
func sweep8(cf *compFactor, perm []int, invD, yb []float64, bs, xs [][]float64) {
	n := len(perm)
	b0, b1, b2, b3 := bs[0], bs[1], bs[2], bs[3]
	b4, b5, b6, b7 := bs[4], bs[5], bs[6], bs[7]
	x0, x1, x2, x3 := xs[0], xs[1], xs[2], xs[3]
	x4, x5, x6, x7 := xs[4], xs[5], xs[6], xs[7]
	rptr, rcols, rvals := cf.rptr, cf.rcols, cf.rvals
	for j := 0; j < n; j++ {
		pj := perm[j]
		s0, s1, s2, s3 := b0[pj], b1[pj], b2[pj], b3[pj]
		s4, s5, s6, s7 := b4[pj], b5[pj], b6[pj], b7[pj]
		p1 := rptr[j+1]
		for p := rptr[j]; p < p1; p++ {
			ri := int(rcols[p]) * 8
			v := rvals[p]
			y := yb[ri : ri+8 : ri+8]
			s0 -= v * y[0]
			s1 -= v * y[1]
			s2 -= v * y[2]
			s3 -= v * y[3]
			s4 -= v * y[4]
			s5 -= v * y[5]
			s6 -= v * y[6]
			s7 -= v * y[7]
		}
		o := j * 8
		y := yb[o : o+8 : o+8]
		y[0], y[1], y[2], y[3] = s0, s1, s2, s3
		y[4], y[5], y[6], y[7] = s4, s5, s6, s7
	}
	cptr, crows, cvals := cf.cptr, cf.crows, cf.cvals
	for j := n - 1; j >= 0; j-- {
		o := j * 8
		d := invD[j]
		yo := yb[o : o+8 : o+8]
		s0, s1, s2, s3 := yo[0]*d, yo[1]*d, yo[2]*d, yo[3]*d
		s4, s5, s6, s7 := yo[4]*d, yo[5]*d, yo[6]*d, yo[7]*d
		p1 := cptr[j+1]
		for p := cptr[j]; p < p1; p++ {
			ri := int(crows[p]) * 8
			v := cvals[p]
			y := yb[ri : ri+8 : ri+8]
			s0 -= v * y[0]
			s1 -= v * y[1]
			s2 -= v * y[2]
			s3 -= v * y[3]
			s4 -= v * y[4]
			s5 -= v * y[5]
			s6 -= v * y[6]
			s7 -= v * y[7]
		}
		yo[0], yo[1], yo[2], yo[3] = s0, s1, s2, s3
		yo[4], yo[5], yo[6], yo[7] = s4, s5, s6, s7
		pj := perm[j]
		x0[pj], x1[pj], x2[pj], x3[pj] = s0, s1, s2, s3
		x4[pj], x5[pj], x6[pj], x7[pj] = s4, s5, s6, s7
	}
}

// sweep16 is the 16-wide interleaved sweep: one factor traversal per sixteen
// right-hand sides. Sixteen live accumulators would exceed the architectural
// register file on amd64 (16 SSE registers) and spill on every nonzero, so
// each unknown's nonzero segment runs as two 8-wide half-passes: the column
// indices and factor values are L1-hot on the second pass, while the 16-wide
// working block still streams the factor from memory exactly once. Per
// accumulator the operation sequence is identical to sweepSolve.
func sweep16(cf *compFactor, perm []int, invD, yb []float64, bs, xs [][]float64) {
	n := len(perm)
	b0, b1, b2, b3 := bs[0], bs[1], bs[2], bs[3]
	b4, b5, b6, b7 := bs[4], bs[5], bs[6], bs[7]
	b8, b9, b10, b11 := bs[8], bs[9], bs[10], bs[11]
	b12, b13, b14, b15 := bs[12], bs[13], bs[14], bs[15]
	x0, x1, x2, x3 := xs[0], xs[1], xs[2], xs[3]
	x4, x5, x6, x7 := xs[4], xs[5], xs[6], xs[7]
	x8, x9, x10, x11 := xs[8], xs[9], xs[10], xs[11]
	x12, x13, x14, x15 := xs[12], xs[13], xs[14], xs[15]
	rptr, rcols, rvals := cf.rptr, cf.rcols, cf.rvals
	for j := 0; j < n; j++ {
		pj := perm[j]
		p0, p1 := rptr[j], rptr[j+1]
		o := j * 16
		s0, s1, s2, s3 := b0[pj], b1[pj], b2[pj], b3[pj]
		s4, s5, s6, s7 := b4[pj], b5[pj], b6[pj], b7[pj]
		for p := p0; p < p1; p++ {
			ri := int(rcols[p]) * 16
			v := rvals[p]
			y := yb[ri : ri+8 : ri+8]
			s0 -= v * y[0]
			s1 -= v * y[1]
			s2 -= v * y[2]
			s3 -= v * y[3]
			s4 -= v * y[4]
			s5 -= v * y[5]
			s6 -= v * y[6]
			s7 -= v * y[7]
		}
		ylo := yb[o : o+8 : o+8]
		ylo[0], ylo[1], ylo[2], ylo[3] = s0, s1, s2, s3
		ylo[4], ylo[5], ylo[6], ylo[7] = s4, s5, s6, s7
		s0, s1, s2, s3 = b8[pj], b9[pj], b10[pj], b11[pj]
		s4, s5, s6, s7 = b12[pj], b13[pj], b14[pj], b15[pj]
		for p := p0; p < p1; p++ {
			ri := int(rcols[p])*16 + 8
			v := rvals[p]
			y := yb[ri : ri+8 : ri+8]
			s0 -= v * y[0]
			s1 -= v * y[1]
			s2 -= v * y[2]
			s3 -= v * y[3]
			s4 -= v * y[4]
			s5 -= v * y[5]
			s6 -= v * y[6]
			s7 -= v * y[7]
		}
		yhi := yb[o+8 : o+16 : o+16]
		yhi[0], yhi[1], yhi[2], yhi[3] = s0, s1, s2, s3
		yhi[4], yhi[5], yhi[6], yhi[7] = s4, s5, s6, s7
	}
	cptr, crows, cvals := cf.cptr, cf.crows, cf.cvals
	for j := n - 1; j >= 0; j-- {
		pj := perm[j]
		p0, p1 := cptr[j], cptr[j+1]
		o := j * 16
		d := invD[j]
		ylo := yb[o : o+8 : o+8]
		s0, s1, s2, s3 := ylo[0]*d, ylo[1]*d, ylo[2]*d, ylo[3]*d
		s4, s5, s6, s7 := ylo[4]*d, ylo[5]*d, ylo[6]*d, ylo[7]*d
		for p := p0; p < p1; p++ {
			ri := int(crows[p]) * 16
			v := cvals[p]
			y := yb[ri : ri+8 : ri+8]
			s0 -= v * y[0]
			s1 -= v * y[1]
			s2 -= v * y[2]
			s3 -= v * y[3]
			s4 -= v * y[4]
			s5 -= v * y[5]
			s6 -= v * y[6]
			s7 -= v * y[7]
		}
		ylo[0], ylo[1], ylo[2], ylo[3] = s0, s1, s2, s3
		ylo[4], ylo[5], ylo[6], ylo[7] = s4, s5, s6, s7
		x0[pj], x1[pj], x2[pj], x3[pj] = s0, s1, s2, s3
		x4[pj], x5[pj], x6[pj], x7[pj] = s4, s5, s6, s7
		yhi := yb[o+8 : o+16 : o+16]
		s0, s1, s2, s3 = yhi[0]*d, yhi[1]*d, yhi[2]*d, yhi[3]*d
		s4, s5, s6, s7 = yhi[4]*d, yhi[5]*d, yhi[6]*d, yhi[7]*d
		for p := p0; p < p1; p++ {
			ri := int(crows[p])*16 + 8
			v := cvals[p]
			y := yb[ri : ri+8 : ri+8]
			s0 -= v * y[0]
			s1 -= v * y[1]
			s2 -= v * y[2]
			s3 -= v * y[3]
			s4 -= v * y[4]
			s5 -= v * y[5]
			s6 -= v * y[6]
			s7 -= v * y[7]
		}
		yhi[0], yhi[1], yhi[2], yhi[3] = s0, s1, s2, s3
		yhi[4], yhi[5], yhi[6], yhi[7] = s4, s5, s6, s7
		x8[pj], x9[pj], x10[pj], x11[pj] = s0, s1, s2, s3
		x12[pj], x13[pj], x14[pj], x15[pj] = s4, s5, s6, s7
	}
}

// sweepSolveK dispatches a K-wide interleaved sweep; K must be 4, 8 or 16
// (SolveBatch's greedy width decomposition guarantees it).
func sweepSolveK(cf *compFactor, perm []int, invD, yb []float64, bs, xs [][]float64) {
	switch len(bs) {
	case 4:
		sweep4(cf, perm, invD, yb, bs, xs)
	case 8:
		sweep8(cf, perm, invD, yb, bs, xs)
	case 16:
		sweep16(cf, perm, invD, yb, bs, xs)
	default:
		panic("linalg: sweepSolveK width must be 4, 8 or 16")
	}
}

// kernelWidthIndex maps a solve-kernel width to its Workspace.KernelSolves
// slot: 1, 4, 8, 16 → 0, 1, 2, 3.
func kernelWidthIndex(k int) int {
	switch k {
	case 1:
		return 0
	case 4:
		return 1
	case 8:
		return 2
	default:
		return 3
	}
}
