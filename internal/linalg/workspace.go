package linalg

// Workspace holds per-goroutine scratch vectors for solves. The zero value
// is ready to use; vectors grow on demand and are reused across calls, so a
// long transient performs no per-step allocation.
type Workspace struct {
	r, z, p, ap, inv []float64
	y                []float64 // direct-solve scratch (Cholesky permuted solve)
	yb               []float64 // interleaved K-wide block (batched direct solves)

	// padB and padX are the 8-wide views of a 5–7-wide batch remainder;
	// pad receives its spare columns' solutions.
	padB, padX [8][]float64
	pad        []float64

	// KernelSolves counts direct triangular-sweep kernel invocations made
	// through this workspace, by kernel width: slots 0..2 are the 1-, 4-
	// and 8-wide kernels. Per-goroutine like the rest of the workspace;
	// callers that aggregate solver statistics read and reset the slots
	// between solves.
	KernelSolves [3]int64
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

// padTo8 returns 8-wide views of the 5–7 right-hand sides b and their
// destinations dst: the spare columns re-solve b[0] into the length-n pad
// vector, so the caller discards them.
//
// It is kept out of line: inlined, it grew SolveBatch by 742 bytes, which
// moved the sweep kernels linked after it by 32 bytes off their 64-byte
// placement, and the 12-wide diverged live grid's RunGrid (sweep8 plus
// sweep4 per step) measured 5% slower there (3.08 against 2.93 ms, 8
// alternating rounds at GOMAXPROCS=1, faster in 8 of 8 out of line).
//
//go:noinline
func (w *Workspace) padTo8(b, dst [][]float64, n int) (bs, xs [][]float64) {
	if cap(w.pad) < n {
		w.pad = make([]float64, n)
	}
	copy(w.padB[:], b)
	copy(w.padX[:], dst)
	for k := len(b); k < 8; k++ {
		w.padB[k], w.padX[k] = b[0], w.pad[:n]
	}
	return w.padB[:], w.padX[:]
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
