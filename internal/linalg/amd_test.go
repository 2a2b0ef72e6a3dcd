package linalg

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// Ordering tests on pathological graphs: every ordering must be a valid
// permutation whatever the shape, the fill cap must keep behaving through
// the AMD path, and AMD must not lose to RCM on the workloads the factor
// exists for.

// pathEntries builds a path graph (tridiagonal SPD matrix): zero fill under
// any reasonable ordering.
func pathEntries(n int) []Coord {
	var entries []Coord
	for i := 0; i+1 < n; i++ {
		entries = append(entries, Coord{i, i + 1, -1}, Coord{i + 1, i, -1})
	}
	for i := 0; i < n; i++ {
		entries = append(entries, Coord{i, i, 2.5})
	}
	return entries
}

// starEntries builds a star (arrowhead matrix): hub 0 tied to every leaf.
// Leaves-first elimination is zero-fill; hub-first is catastrophic.
func starEntries(n int) []Coord {
	var entries []Coord
	for i := 1; i < n; i++ {
		entries = append(entries, Coord{0, i, -1}, Coord{i, 0, -1})
	}
	entries = append(entries, Coord{0, 0, float64(n)})
	for i := 1; i < n; i++ {
		entries = append(entries, Coord{i, i, 1.5})
	}
	return entries
}

// cliqueEntries builds a dense clique: every ordering fills completely, the
// worst case for the quotient graph's element machinery.
func cliqueEntries(n int) []Coord {
	var entries []Coord
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				entries = append(entries, Coord{i, i, float64(n) + 1})
			} else {
				entries = append(entries, Coord{i, j, -1})
			}
		}
	}
	return entries
}

// componentsEntries builds several disconnected blocks: a path, a star and a
// small clique, plus isolated diagonal-only nodes.
func componentsEntries() (int, []Coord) {
	var entries []Coord
	off := 0
	add := func(part []Coord, n int) {
		for _, e := range part {
			entries = append(entries, Coord{e.I + off, e.J + off, e.V})
		}
		off += n
	}
	add(pathEntries(17), 17)
	add(starEntries(9), 9)
	add(cliqueEntries(6), 6)
	for i := 0; i < 3; i++ { // isolated nodes: degree zero, eliminated first
		entries = append(entries, Coord{off, off, 1})
		off++
	}
	return off, entries
}

func checkPermutation(t *testing.T, name string, n int, perm []int) {
	t.Helper()
	if len(perm) != n {
		t.Fatalf("%s: permutation length %d, want %d", name, len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			t.Fatalf("%s: invalid permutation %v", name, perm)
		}
		seen[p] = true
	}
}

// TestOrderingsOnPathologicalGraphs: AMD and RCM must return valid
// permutations on a path, a star, a clique, disconnected components and
// random SPD patterns, and the factorization built on them must match the
// dense oracle.
func TestOrderingsOnPathologicalGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cases := []struct {
		name    string
		n       int
		entries []Coord
	}{
		{"path", 64, pathEntries(64)},
		{"star", 64, starEntries(64)},
		{"clique", 24, cliqueEntries(24)},
	}
	n, comp := componentsEntries()
	cases = append(cases, struct {
		name    string
		n       int
		entries []Coord
	}{"components", n, comp})
	for _, sz := range []int{1, 2, 3, 50} {
		cases = append(cases, struct {
			name    string
			n       int
			entries []Coord
		}{fmt.Sprintf("random%d", sz), sz, spdEntries(rng, sz)})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewCSR(tc.n, tc.entries)
			checkPermutation(t, "amd", tc.n, amdOrder(m))
			checkPermutation(t, "rcm", tc.n, rcmOrder(m))
			chol := cholOf(t, tc.n, tc.entries)
			dense := luOracle(t, tc.n, tc.entries)
			b := make([]float64, tc.n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			xd := dense.Solve(b)
			xc := chol.Solve(b, nil, &Workspace{})
			if e := relErr(xd, xc); e > 1e-9 {
				t.Fatalf("cholesky diverges from dense by %g", e)
			}
		})
	}
}

// TestAMDZeroFillShapes: path and star graphs factor with zero fill under
// AMD (nnz(L) = edge count) — the structures minimum degree handles
// perfectly and a bandwidth ordering does not (star).
func TestAMDZeroFillShapes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		entries []Coord
	}{
		{"path", 200, pathEntries(200)},
		{"star", 200, starEntries(200)},
	} {
		m := NewCSR(tc.n, tc.entries)
		sym := analyzeCholesky(m)
		if sym.nnzL != tc.n-1 {
			t.Fatalf("%s: nnz(L)=%d, want %d (zero fill)", tc.name, sym.nnzL, tc.n-1)
		}
	}
}

// fillUnder computes nnz(L) for a fixed ordering (symbolic only).
func fillUnder(m *CSR, perm []int) int {
	n := m.N
	iperm := make([]int, n)
	for k, p := range perm {
		iperm[p] = k
	}
	parent := make([]int, n)
	flag := make([]int, n)
	nnz := 0
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
				nnz++
				flag[i] = k
			}
		}
	}
	return nnz
}

// TestAMDBeatsRCMOnReferenceGrids: on the 2D grid Laplacians the reference
// solver produces, AMD must order to strictly less fill than RCM — the whole
// reason the dense-bitset cap had to go. (Theory says O(n log n) vs
// O(n^1.5); the margin below is a conservative regression fence, not the
// asymptotic claim.)
func TestAMDBeatsRCMOnReferenceGrids(t *testing.T) {
	for _, nx := range []int{16, 32, 64} {
		n, entries := gridEntries(nx, nx)
		m := NewCSR(n, entries)
		amdFill := fillUnder(m, amdOrder(m))
		rcmFill := fillUnder(m, rcmOrder(m))
		t.Logf("grid %dx%d: nnz(L) amd=%d rcm=%d (%.2fx)", nx, nx, amdFill, rcmFill, float64(rcmFill)/float64(amdFill))
		if amdFill >= rcmFill {
			t.Fatalf("grid %dx%d: AMD fill %d not below RCM fill %d", nx, nx, amdFill, rcmFill)
		}
	}
}

// TestFillCapStillAborts: the fill cap must keep aborting before numeric
// work on the AMD path.
func TestFillCapStillAborts(t *testing.T) {
	m := NewCSR(gridEntries(14, 14))
	if _, err := NewCholeskyOperator(m, 1.0001); err == nil {
		t.Fatal("tight fill cap accepted a filling grid")
	}
	if _, err := NewCholeskyOperator(m, 1e6); err != nil {
		t.Fatalf("loose fill cap: %v", err)
	}
}

// TestAMDLargeGridUncapped: the ordering, symbolic analysis and numeric
// factorization must run (and solve to oracle-residual accuracy) at sizes
// the PR 4 dense-bitset ordering was capped below.
func TestAMDLargeGridUncapped(t *testing.T) {
	const nx = 110 // 12100 unknowns, ~3x past the old mdMaxN cap
	n, entries := gridEntries(nx, nx)
	op := cholOf(t, n, entries)
	rng := rand.New(rand.NewSource(4))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := op.Solve(b, nil, &Workspace{})
	r := make([]float64, n)
	op.Apply(x, r)
	for i := range r {
		r[i] -= b[i]
	}
	if rn := Norm2(r) / (1 + Norm2(b)); rn > 1e-10 {
		t.Fatalf("residual %g at n=%d", rn, n)
	}
}

// --- reverse Cuthill-McKee ordering ---

// rcmOrder returns a reverse Cuthill-McKee permutation of the matrix graph:
// perm[k] is the original index of the k-th pivot. The ordering is a
// breadth-first numbering from a pseudo-peripheral start, neighbours visited
// by ascending degree, then reversed — which concentrates the profile of a
// mesh-like graph near the diagonal and bounds Cholesky fill by the
// bandwidth. It is the bandwidth-quality baseline the ordering tests
// compare AMD against. Deterministic: ties break on node index, components
// are entered in index order.
func rcmOrder(m *CSR) []int {
	n := m.N
	deg := make([]int, n)
	for i := 0; i < n; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if m.ColIdx[p] != i {
				deg[i]++
			}
		}
	}
	perm := make([]int, 0, n)
	visited := make([]bool, n)
	level := make([]int, n)
	scratch := make([]int, 0, 16)
	for seed := 0; seed < n; seed++ {
		if visited[seed] {
			continue
		}
		start := pseudoPeripheral(m, seed, deg, level)
		// Cuthill-McKee BFS from start.
		from := len(perm)
		perm = append(perm, start)
		visited[start] = true
		for q := from; q < len(perm); q++ {
			u := perm[q]
			scratch = scratch[:0]
			for p := m.RowPtr[u]; p < m.RowPtr[u+1]; p++ {
				v := m.ColIdx[p]
				if v != u && !visited[v] {
					visited[v] = true
					scratch = append(scratch, v)
				}
			}
			sort.Slice(scratch, func(a, b int) bool {
				if deg[scratch[a]] != deg[scratch[b]] {
					return deg[scratch[a]] < deg[scratch[b]]
				}
				return scratch[a] < scratch[b]
			})
			perm = append(perm, scratch...)
		}
	}
	for l, r := 0, n-1; l < r; l, r = l+1, r-1 {
		perm[l], perm[r] = perm[r], perm[l]
	}
	return perm
}

// pseudoPeripheral finds a node of near-maximal eccentricity in seed's
// component by repeated BFS: start anywhere, move to a minimum-degree node
// of the last level, stop when the eccentricity stops growing.
func pseudoPeripheral(m *CSR, seed int, deg, level []int) int {
	start := seed
	ecc := -1
	queue := make([]int, 0, 64)
	for iter := 0; iter < 8; iter++ {
		queue = queue[:0]
		queue = append(queue, start)
		level[start] = 0
		mark := make(map[int]bool, 64)
		mark[start] = true
		last := start
		for q := 0; q < len(queue); q++ {
			u := queue[q]
			last = u
			for p := m.RowPtr[u]; p < m.RowPtr[u+1]; p++ {
				v := m.ColIdx[p]
				if v != u && !mark[v] {
					mark[v] = true
					level[v] = level[u] + 1
					queue = append(queue, v)
				}
			}
		}
		newEcc := level[last]
		if newEcc <= ecc {
			break
		}
		ecc = newEcc
		// Minimum-degree node on the deepest level (ties: lowest index, via
		// BFS order determinism).
		best := last
		for _, u := range queue {
			if level[u] == newEcc && (deg[u] < deg[best] || (deg[u] == deg[best] && u < best)) {
				best = u
			}
		}
		start = best
	}
	return start
}
