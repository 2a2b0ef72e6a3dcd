package linalg

// Workspace holds per-goroutine scratch vectors for solves. The zero value
// is ready to use; vectors grow on demand and are reused across calls, so a
// long transient performs no per-step allocation.
type Workspace struct {
	r, z, p, ap, inv []float64
	y                []float64 // direct-solve scratch (Cholesky permuted solve)
	yb               []float64 // interleaved K-wide block (batched direct solves)

	// KernelSolves counts direct triangular-sweep kernel invocations made
	// through this workspace, by kernel width: slots 0..3 are the 1-, 4-,
	// 8- and 16-wide kernels. Per-goroutine like the rest of the workspace; callers
	// that aggregate solver statistics read and reset the slots between
	// solves.
	KernelSolves [4]int64
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
