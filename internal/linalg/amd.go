package linalg

// This file implements the approximate-minimum-degree (AMD) fill-reducing
// ordering on a quotient graph, in the style of Amestoy, Davis and Duff. It
// replaced the dense-bitset greedy minimum-degree of PR 4, whose n²/8-byte
// adjacency and O(n²) pivot scans capped the direct backend at 4096 unknowns:
// the quotient graph stores eliminated pivots as *elements* (cliques
// represented by their member list instead of materialized edges), so memory
// stays near-linear in nnz(A) and the ordering runs at reference-grid scale
// (10^4–10^5 unknowns) in milliseconds.
//
// The implementation keeps the three classic AMD devices:
//
//   - approximate external degrees: |Le \ Lp| per adjacent element is
//     computed for all touched elements in one pass over the pivot's
//     neighbourhood (the w-trick), so a degree update costs the size of the
//     lists involved, never a set union;
//   - supervariable absorption: variables with identical quotient-graph
//     adjacency (detected by hashing, confirmed by exact comparison) are
//     merged and eliminated together — this is also what makes the
//     elimination order supernode-friendly;
//   - aggressive element absorption: an element whose variables are all
//     covered by the new pivot element is deleted outright.
//
// Everything is deterministic: pivots come off degree buckets that are
// filled and drained in a fixed order, hash-bucket walks follow insertion
// order, and absorbed variables are emitted in ascending index order — so
// orderings (and therefore factors and solves) are bit-stable across runs,
// machines and GOMAXPROCS settings.

// amdOrder returns an approximate-minimum-degree permutation of the matrix
// graph: perm[k] is the original index of the k-th pivot. The diagonal is
// ignored; the matrix must be structurally symmetric (NewCholeskyOperator
// verifies that before ordering).
func amdOrder(m *CSR) []int {
	n := m.N
	if n == 0 {
		return nil
	}
	// Quotient-graph state. Variable i is a *principal* while nv[i] > 0;
	// absorbed variables carry absorbedInto links to the principal that
	// swallowed them; eliminated principals become elements whose member
	// list lives in elVars.
	adjVar := make([][]int32, n) // variable↔variable edges, lazily pruned
	adjEl := make([][]int32, n)  // elements adjacent to a variable
	elVars := make([][]int32, n) // element → member variables (nil until eliminated)
	elW := make([]int, n)        // weighted |Le| at element creation (invariant while alive)
	nv := make([]int32, n)       // supervariable weight; 0 = absorbed or eliminated
	deadEl := make([]bool, n)    // element absorbed into a newer element
	elim := make([]bool, n)      // variable eliminated (became an element)
	absorbedInto := make([]int32, n)
	deg := make([]int, n) // approximate weighted external degree

	for i := 0; i < n; i++ {
		cnt := 0
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if m.ColIdx[p] != i {
				cnt++
			}
		}
		lst := make([]int32, 0, cnt)
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if j := m.ColIdx[p]; j != i {
				lst = append(lst, int32(j))
			}
		}
		adjVar[i] = lst
		nv[i] = 1
		deg[i] = cnt
		absorbedInto[i] = -1
	}

	// Degree buckets: doubly-linked lists per degree, drained smallest
	// degree first, LIFO within a bucket (deterministic either way).
	head := make([]int32, n+1)
	next := make([]int32, n)
	prev := make([]int32, n)
	for d := range head {
		head[d] = -1
	}
	inBucket := make([]bool, n)
	insert := func(i int) {
		d := deg[i]
		next[i] = head[d]
		prev[i] = -1
		if head[d] >= 0 {
			prev[head[d]] = int32(i)
		}
		head[d] = int32(i)
		inBucket[i] = true
	}
	remove := func(i int) {
		if !inBucket[i] {
			return
		}
		if prev[i] >= 0 {
			next[prev[i]] = next[i]
		} else {
			head[deg[i]] = next[i]
		}
		if next[i] >= 0 {
			prev[next[i]] = prev[i]
		}
		inBucket[i] = false
	}
	for i := 0; i < n; i++ {
		insert(i)
	}

	// Stamped scratch: mark for Lp membership and list comparison, eseen/lw
	// for the per-pivot |Le \ Lp| values, hstamp/hhead/hnext for the
	// supervariable hash buckets.
	mark := make([]int, n)
	eseen := make([]int, n)
	lw := make([]int, n)
	cseen := make([]int, n) // comparison marks (own counter, never reused)
	hstamp := make([]int, n)
	hhead := make([]int32, n)
	hnext := make([]int32, n)
	stamp := 0
	cmp := 0

	lp := make([]int32, 0, 64)
	pivots := make([]int32, 0, n)
	nelim := 0
	mindeg := 0

	for nelim < n {
		// Pick the minimum-degree principal.
		for head[mindeg] < 0 {
			mindeg++
		}
		p := int(head[mindeg])
		remove(p)

		// Gather Lp = alive principals adjacent to p through variable edges
		// and through the member lists of p's elements; those elements are
		// all absorbed into the new element p.
		stamp++
		mark[p] = stamp
		lp = lp[:0]
		degme := 0
		for _, j32 := range adjVar[p] {
			j := int(j32)
			if nv[j] <= 0 || mark[j] == stamp {
				continue
			}
			mark[j] = stamp
			lp = append(lp, j32)
			degme += int(nv[j])
		}
		for _, e32 := range adjEl[p] {
			e := int(e32)
			if deadEl[e] || !elim[e] {
				continue
			}
			for _, j32 := range elVars[e] {
				j := int(j32)
				if nv[j] <= 0 || mark[j] == stamp {
					continue
				}
				mark[j] = stamp
				lp = append(lp, j32)
				degme += int(nv[j])
			}
			deadEl[e] = true
			elVars[e] = nil
		}
		nvp := int(nv[p])
		elim[p] = true
		nv[p] = 0
		adjVar[p] = nil
		adjEl[p] = nil
		elVars[p] = append([]int32(nil), lp...)
		elW[p] = degme
		pivots = append(pivots, int32(p))
		nelim += nvp

		// w-trick: one pass over the element lists of Lp members leaves
		// lw[e] = weighted |Le \ Lp| for every element e touching Lp.
		for _, i32 := range lp {
			for _, e32 := range adjEl[i32] {
				e := int(e32)
				if deadEl[e] {
					continue
				}
				if eseen[e] != stamp {
					eseen[e] = stamp
					lw[e] = elW[e]
				}
				lw[e] -= int(nv[i32])
			}
		}

		// Degree update: clean each Lp member's lists in place, absorb
		// exhausted elements, and recompute the approximate degree.
		for _, i32 := range lp {
			i := int(i32)
			remove(i)
			extEl := 0
			els := adjEl[i][:0]
			for _, e32 := range adjEl[i] {
				e := int(e32)
				if deadEl[e] {
					continue
				}
				le := lw[e]
				if eseen[e] != stamp {
					le = elW[e] // untouched by Lp: impossible here, but keep the invariant
				}
				if le == 0 {
					// Aggressive absorption: Le ⊆ Lp, the new element
					// covers everything e did.
					deadEl[e] = true
					elVars[e] = nil
					continue
				}
				extEl += le
				els = append(els, e32)
			}
			els = append(els, int32(p))
			adjEl[i] = els
			extVar := 0
			vars := adjVar[i][:0]
			for _, j32 := range adjVar[i] {
				j := int(j32)
				if nv[j] <= 0 {
					continue
				}
				if mark[j] == stamp {
					continue // covered by element p now
				}
				extVar += int(nv[j])
				vars = append(vars, j32)
			}
			adjVar[i] = vars
			d := degme - int(nv[i]) + extEl + extVar
			if alt := deg[i] + degme - int(nv[i]); alt < d {
				d = alt
			}
			if cap := n - nelim - int(nv[i]); cap < d {
				d = cap
			}
			if d < 0 {
				d = 0
			}
			deg[i] = d
		}

		// Supervariable detection: hash each Lp member's cleaned adjacency,
		// then compare within hash buckets and merge exact matches.
		stamp++
		hashOf := func(i int) int {
			h := uint64(0)
			for _, e := range adjEl[i] {
				if !deadEl[e] {
					h += uint64(e) + 1
				}
			}
			for _, j := range adjVar[i] {
				if nv[j] > 0 {
					h += uint64(j) + 1
				}
			}
			return int(h % uint64(n))
		}
		for _, i32 := range lp {
			h := hashOf(int(i32))
			if hstamp[h] != stamp {
				hstamp[h] = stamp
				hhead[h] = -1
			}
			hnext[i32] = hhead[h]
			hhead[h] = i32
		}
		for _, i32 := range lp {
			i := int(i32)
			if nv[i] <= 0 {
				continue // absorbed earlier in this pass
			}
			for j32 := hnext[i32]; j32 >= 0; j32 = hnext[j32] {
				j := int(j32)
				if nv[j] <= 0 {
					continue
				}
				if sameAdjacency(i, j, adjEl, adjVar, deadEl, nv, cseen, &cmp) {
					// j joins supervariable i: identical adjacency means the
					// two columns are indistinguishable and eliminate
					// together. j's weight stops being external to i.
					deg[i] -= int(nv[j])
					if deg[i] < 0 {
						deg[i] = 0
					}
					nv[i] += nv[j]
					nv[j] = 0
					absorbedInto[j] = i32
					adjVar[j] = nil
					adjEl[j] = nil
				}
			}
		}

		// Re-insert surviving Lp members with their updated degrees.
		for _, i32 := range lp {
			i := int(i32)
			if nv[i] <= 0 {
				continue
			}
			insert(i)
			if deg[i] < mindeg {
				mindeg = deg[i]
			}
		}
	}

	// Expand supervariables: each pivot is emitted with every variable whose
	// absorption chain terminates at it, in ascending index order.
	kidHead := make([]int32, n)
	kidNext := make([]int32, n)
	for i := range kidHead {
		kidHead[i] = -1
	}
	root := func(j int32) int32 {
		r := j
		for absorbedInto[r] >= 0 {
			r = absorbedInto[r]
		}
		for absorbedInto[j] >= 0 { // path-compress the chain
			nj := absorbedInto[j]
			absorbedInto[j] = r
			j = nj
		}
		return r
	}
	for j := n - 1; j >= 0; j-- { // reverse push onto LIFO lists → ascending walk
		if absorbedInto[j] < 0 {
			continue
		}
		r := root(int32(j))
		kidNext[j] = kidHead[r]
		kidHead[r] = int32(j)
	}
	perm := make([]int, 0, n)
	for _, p := range pivots {
		perm = append(perm, int(p))
		for k := kidHead[p]; k >= 0; k = kidNext[k] {
			perm = append(perm, int(k))
		}
	}
	return perm
}

// sameAdjacency reports whether principals i and j have identical alive
// quotient-graph adjacency (element set and variable set), ignoring dead
// entries and each other (adjacent twins are indistinguishable too). seen is
// a mark array driven by the monotone *cmp counter.
func sameAdjacency(i, j int, adjEl, adjVar [][]int32, deadEl []bool, nv []int32, seen []int, cmp *int) bool {
	*cmp++
	s := *cmp
	ni := 0
	for _, e := range adjEl[i] {
		if !deadEl[e] {
			seen[e] = s
			ni++
		}
	}
	nj := 0
	for _, e := range adjEl[j] {
		if deadEl[e] {
			continue
		}
		if seen[e] != s {
			return false
		}
		nj++
	}
	if ni != nj {
		return false
	}
	*cmp++
	s = *cmp
	ni = 0
	for _, v := range adjVar[i] {
		if nv[v] > 0 && int(v) != j {
			seen[v] = s
			ni++
		}
	}
	nj = 0
	for _, v := range adjVar[j] {
		if nv[v] <= 0 || int(v) == i {
			continue
		}
		if seen[v] != s {
			return false
		}
		nj++
	}
	return ni == nj
}
