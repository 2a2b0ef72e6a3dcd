package linalg

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// Tests for the register-blocked kernels: a factorization whose bits do
// not depend on GOMAXPROCS, and the per-width kernel counters.

// TestFactorBitIdenticalAcrossGOMAXPROCS: the numeric factorization must
// produce identical bits at GOMAXPROCS 1, 2 and 4 on a 96×96 grid.
func TestFactorBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	n, entries := gridEntries(96, 96)
	m := NewCSR(n, entries)
	sym := analyzeCholesky(m)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var ref *cholFactor
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		f, err := factorSupernodal(m, sym)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = f
			continue
		}
		for i := range ref.vals {
			if f.vals[i] != ref.vals[i] {
				t.Fatalf("GOMAXPROCS=%d: panel value %d: %v vs %v", procs, i, f.vals[i], ref.vals[i])
			}
		}
		for i := range ref.d {
			if f.d[i] != ref.d[i] {
				t.Fatalf("GOMAXPROCS=%d: pivot %d: %v vs %v", procs, i, f.d[i], ref.d[i])
			}
		}
	}
}

// TestNotSPDNamesLowestPivot: a matrix that fails at two pivots must
// report the lower one at every GOMAXPROCS. On a 2304-unknown grid the
// higher failing column starts the last panel that no other panel
// updates, so a schedule that factored such panels first would meet it
// first; the lower one starts the first panel with updaters.
func TestNotSPDNamesLowestPivot(t *testing.T) {
	n, entries := gridEntries(48, 48)
	sym := analyzeCholesky(NewCSR(n, entries))
	ns := sym.Supernodes()
	hi, lo := -1, -1
	for s := ns - 1; s >= 0 && hi < 0; s-- {
		if len(sym.updaters[s]) == 0 {
			hi = int(sym.snStart[s])
		}
	}
	for s := 0; s < ns && lo < 0 && int(sym.snStart[s]) < hi; s++ {
		if len(sym.updaters[s]) > 0 {
			lo = int(sym.snStart[s])
		}
	}
	if lo < 0 {
		t.Fatalf("no updated panel before column %d", hi)
	}
	for i, e := range entries {
		if e.I == e.J && (e.I == sym.perm[lo] || e.I == sym.perm[hi]) {
			entries[i].V = -10
		}
	}
	m := NewCSR(n, entries)
	want := fmt.Sprintf("pivot %d (node %d)", lo, sym.perm[lo])
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		_, err := NewCholeskyOperator(m, 0)
		if !errors.Is(err, ErrNotSPD) || !strings.Contains(err.Error(), want) {
			t.Fatalf("GOMAXPROCS=%d: got %v, want ErrNotSPD at %s", procs, err, want)
		}
	}
}

// TestKernelSolveCounters: the workspace must attribute solves to the
// kernel widths the dispatch actually used: 8-wide passes, then a 5–7
// remainder as one 8-wide pass, 4 as one 4-wide and 1–3 as single solves.
// Together the widths cover every counter slot.
func TestKernelSolveCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 120
	op := cholOf(t, n, spdEntries(rng, n))
	for _, tc := range []struct {
		kk   int
		want [3]int64
	}{
		{31, [3]int64{0, 0, 4}}, // 8 + 8 + 8 + (7 run as 8)
		{28, [3]int64{0, 1, 3}}, // 8 + 8 + 8 + 4
		{27, [3]int64{3, 0, 3}}, // 8 + 8 + 8 + 3×1
		{13, [3]int64{0, 0, 2}}, // 8 + (5 run as 8)
		{6, [3]int64{0, 0, 1}},  // 6 run as 8
	} {
		b := make([][]float64, tc.kk)
		for k := range b {
			b[k] = make([]float64, n)
			for i := range b[k] {
				b[k][i] = rng.NormFloat64()
			}
		}
		ws := &Workspace{}
		op.SolveBatch(b, nil, ws)
		if ws.KernelSolves != tc.want {
			t.Fatalf("K=%d: kernel counters %v, want %v", tc.kk, ws.KernelSolves, tc.want)
		}
	}
}
