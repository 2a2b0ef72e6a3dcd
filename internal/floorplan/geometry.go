package floorplan

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Block-pair geometry (DESIGN.md §2.1). Adjacencies and ValidateNoOverlap
// answer questions about pairs of blocks without testing all B² pairs: a
// sweep along one axis keeps the blocks whose extent along it overlaps the
// current block's by more than geomTol, and sorted edge coordinates along
// the other axis pick the pairs out of that set. Every window below is
// found by binary search with the same floating-point expression the pair
// tests evaluate (a difference of two edges against ±geomTol), which is
// monotone along a sorted list, so the windows hold exactly the pairs the
// pair tests accept, tolerance and rounding included.

// geomTol is the tolerance used when comparing coordinates; floorplans are
// expressed in meters, so a nanometer slack absorbs decimal rounding.
const geomTol = 1e-9

// ValidateNoOverlap checks that no two blocks overlap. When some do, it
// names the first overlapping pair (i, j) in index order, i < j.
func (fp *Floorplan) ValidateNoOverlap() error {
	for _, i := range fp.overlapping() {
		a := fp.Blocks[i]
		for j := i + 1; j < len(fp.Blocks); j++ {
			b := fp.Blocks[j]
			ox := overlap1D(a.X, a.X+a.Width, b.X, b.X+b.Width)
			oy := overlap1D(a.Y, a.Y+a.Height, b.Y, b.Y+b.Height)
			if ox > geomTol && oy > geomTol {
				return fmt.Errorf("floorplan: blocks %q and %q overlap by %.3g×%.3g m", a.Name, b.Name, ox, oy)
			}
		}
	}
	return nil
}

func overlap1D(a0, a1, b0, b1 float64) float64 {
	lo := math.Max(a0, b0)
	hi := math.Min(a1, b1)
	if hi > lo {
		return hi - lo
	}
	return 0
}

// Adjacency describes two blocks sharing an edge.
type Adjacency struct {
	I, J int // block indices, I < J
	// SharedLen is the length of the shared edge in meters.
	SharedLen float64
	// Horizontal is true when the shared edge is vertical (the blocks are
	// left/right neighbours and heat flows horizontally between them).
	Horizontal bool
}

// Adjacencies computes all pairs of blocks that share an edge of positive
// length, ordered by (I, J).
func (fp *Floorplan) Adjacencies() []Adjacency {
	e := fp.edges()
	keys := touchingPairs(e.y0, e.y1, e.x0, e.x1, nil) // left/right neighbours
	keys = touchingPairs(e.x0, e.x1, e.y0, e.y1, keys) // top/bottom neighbours
	slices.Sort(keys)
	keys = slices.Compact(keys) // a pair of slivers can touch on both sides
	out := make([]Adjacency, 0, len(keys))
	for _, k := range keys {
		if adj, ok := fp.adjacency(int(k>>32), int(uint32(k))); ok {
			out = append(out, adj)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// adjacency tests blocks i < j for a shared edge: left/right neighbours
// (a's right edge touches b's left edge or vice versa, and they overlap
// vertically) before top/bottom ones.
func (fp *Floorplan) adjacency(i, j int) (Adjacency, bool) {
	a, b := fp.Blocks[i], fp.Blocks[j]
	if touches(a.X+a.Width, b.X) || touches(b.X+b.Width, a.X) {
		if l := overlap1D(a.Y, a.Y+a.Height, b.Y, b.Y+b.Height); l > geomTol {
			return Adjacency{I: i, J: j, SharedLen: l, Horizontal: true}, true
		}
	}
	if touches(a.Y+a.Height, b.Y) || touches(b.Y+b.Height, a.Y) {
		if l := overlap1D(a.X, a.X+a.Width, b.X, b.X+b.Width); l > geomTol {
			return Adjacency{I: i, J: j, SharedLen: l, Horizontal: false}, true
		}
	}
	return Adjacency{}, false
}

func touches(a, b float64) bool { return math.Abs(a-b) <= geomTol }

// edges holds each block's low and high coordinate along both axes, the
// high ones rounded as the pair tests round X+Width and Y+Height.
type edges struct{ x0, x1, y0, y1 []float64 }

func (fp *Floorplan) edges() edges {
	n := len(fp.Blocks)
	e := edges{make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)}
	for i, b := range fp.Blocks {
		e.x0[i], e.x1[i] = b.X, b.X+b.Width
		e.y0[i], e.y1[i] = b.Y, b.Y+b.Height
	}
	return e
}

// wider returns the blocks whose extent hi−lo exceeds geomTol. Only they
// can overlap another block along that axis by more than geomTol.
func wider(lo, hi []float64) []int32 {
	var ids []int32
	for i := range lo {
		if hi[i]-lo[i] > geomTol {
			ids = append(ids, int32(i))
		}
	}
	return ids
}

// order lists blocks by one coordinate: v[k] is the coordinate of block
// ids[k], and at[id] is block id's place k.
type order struct {
	ids, at []int32
	v       []float64
}

func sortedBy(ids []int32, coord []float64) order {
	o := order{ids: slices.Clone(ids), at: make([]int32, len(coord)), v: make([]float64, len(ids))}
	slices.SortFunc(o.ids, func(a, b int32) int { return cmp.Compare(coord[a], coord[b]) })
	for k, id := range o.ids {
		o.at[id] = int32(k)
		o.v[k] = coord[id]
	}
	return o
}

// search returns the first place whose coordinate satisfies ok, which must
// be false and then true along the order.
func (o order) search(ok func(v float64) bool) int {
	return sort.Search(len(o.v), func(k int) bool { return ok(o.v[k]) })
}

// sweep visits the blocks ids, each wider than geomTol along the axis, in
// order of their low coordinate lo. Before enter(b), leave(a) has run for
// every earlier block a with hi[a]−lo[b] ≤ geomTol, so the blocks entered
// and not yet left are exactly the earlier ones whose overlap with b along
// the axis exceeds geomTol. A block never has to come back: lo[b] only
// grows, so hi[a]−lo[b] only falls. A block that has not entered yet is
// never due to leave, because its own extent exceeds geomTol.
func sweep(ids []int32, lo, hi []float64, enter, leave func(b int32)) {
	byHi := sortedBy(ids, hi)
	next := 0
	for _, b := range sortedBy(ids, lo).ids {
		for next < len(byHi.ids) && byHi.v[next]-lo[b] <= geomTol {
			leave(byHi.ids[next])
			next++
		}
		enter(b)
	}
}

// touchingPairs appends a key i<<32|j, i < j, for each pair of blocks that
// overlap by more than geomTol along the sweep axis (s0, s1) and where one
// block's high edge along the other axis (e1) touches the other's low edge
// (e0). These are the candidates for an edge shared across that axis.
func touchingPairs(s0, s1, e0, e1 []float64, keys []uint64) []uint64 {
	ids := wider(s0, s1)
	lows, highs := sortedBy(ids, e0), sortedBy(ids, e1)
	inLows, inHighs := newRankTree(len(ids)), newRankTree(len(ids))
	var found []int32
	sweep(ids, s0, s1, func(b int32) {
		hi, lo := e1[b], e0[b]
		// Entered blocks whose low edge touches b's high edge...
		from := lows.search(func(v float64) bool { return hi-v <= geomTol })
		to := lows.search(func(v float64) bool { return hi-v < -geomTol })
		found = inLows.collect(from, to, 0, found[:0])
		for _, k := range found {
			keys = append(keys, pairKey(b, lows.ids[k]))
		}
		// ...and those whose high edge touches b's low edge.
		from = highs.search(func(v float64) bool { return v-lo >= -geomTol })
		to = highs.search(func(v float64) bool { return v-lo > geomTol })
		found = inHighs.collect(from, to, 0, found[:0])
		for _, k := range found {
			keys = append(keys, pairKey(b, highs.ids[k]))
		}
		inLows.set(lows.at[b], 0)
		inHighs.set(highs.at[b], 0)
	}, func(a int32) {
		inLows.set(lows.at[a], -1)
		inHighs.set(highs.at[a], -1)
	})
	return keys
}

func pairKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// overlapping returns, in index order, the blocks that overlap some other
// block by more than geomTol along both axes. The sweep runs along y, so
// the entered blocks overlap the entering block b vertically; one tree
// holds them all and another only those not yet known to overlap anything.
// Both are indexed by the place of a block's left edge and hold the rank of
// its right edge. An entered block overlaps b horizontally when it starts
// at or left of b's left edge and its right edge passes that edge by more
// than geomTol, or when it starts right of b's left edge and more than
// geomTol before b's right edge. The second tree is read in full, and
// each block is taken out of it once, so the sweep never lists more than
// B blocks however many pairs overlap.
func (fp *Floorplan) overlapping() []int {
	e := fp.edges()
	ids := wider(e.x0, e.x1)
	ids = slices.DeleteFunc(ids, func(i int32) bool { return !(e.y1[i]-e.y0[i] > geomTol) })
	lefts, rights := sortedBy(ids, e.x0), sortedBy(ids, e.x1)
	entered, unmarked := newRankTree(len(ids)), newRankTree(len(ids))
	marked := make([]bool, len(fp.Blocks))
	var found []int32
	sweep(ids, e.y0, e.y1, func(b int32) {
		l, r := e.x0[b], e.x1[b]
		p := lefts.search(func(v float64) bool { return v > l })
		q := lefts.search(func(v float64) bool { return r-v <= geomTol })
		rank := int32(rights.search(func(v float64) bool { return v-l > geomTol }))
		found = unmarked.collect(0, p, rank, found[:0])
		found = unmarked.collect(p, q, 0, found)
		for _, k := range found {
			marked[lefts.ids[k]] = true
			unmarked.set(k, -1)
		}
		if len(found) > 0 || entered.any(0, p, rank) || entered.any(p, q, 0) {
			marked[b] = true
		}
		entered.set(lefts.at[b], rights.at[b])
		if !marked[b] {
			unmarked.set(lefts.at[b], rights.at[b])
		}
	}, func(a int32) {
		entered.set(lefts.at[a], -1)
		unmarked.set(lefts.at[a], -1)
	})
	var out []int
	for i, m := range marked {
		if m {
			out = append(out, i)
		}
	}
	return out
}

// rankTree is a max segment tree over the places of an order: each place
// holds a non-negative rank while its block is in the sweep, −1 otherwise.
type rankTree struct {
	size int     // leaves, a power of two
	max  []int32 // max[1] is the root; place k is the leaf max[size+k]
}

func newRankTree(n int) *rankTree {
	size := 1
	for size < n {
		size *= 2
	}
	t := &rankTree{size: size, max: make([]int32, 2*size)}
	for i := range t.max {
		t.max[i] = -1
	}
	return t
}

func (t *rankTree) set(place int32, rank int32) {
	k := t.size + int(place)
	t.max[k] = rank
	for k > 1 {
		k /= 2
		t.max[k] = max(t.max[2*k], t.max[2*k+1])
	}
}

// collect appends to out each place in [lo, hi) holding a rank ≥ least,
// in O(log n) per place listed.
func (t *rankTree) collect(lo, hi int, least int32, out []int32) []int32 {
	return t.walk(1, 0, t.size, lo, hi, least, out)
}

func (t *rankTree) walk(node, nlo, nhi, lo, hi int, least int32, out []int32) []int32 {
	if nhi <= lo || hi <= nlo || t.max[node] < least {
		return out
	}
	if node >= t.size {
		return append(out, int32(nlo))
	}
	mid := (nlo + nhi) / 2
	out = t.walk(2*node, nlo, mid, lo, hi, least, out)
	return t.walk(2*node+1, mid, nhi, lo, hi, least, out)
}

// any reports whether some place in [lo, hi) holds a rank ≥ least.
func (t *rankTree) any(lo, hi int, least int32) bool {
	return t.anyIn(1, 0, t.size, lo, hi, least)
}

func (t *rankTree) anyIn(node, nlo, nhi, lo, hi int, least int32) bool {
	if nhi <= lo || hi <= nlo || t.max[node] < least {
		return false
	}
	if lo <= nlo && nhi <= hi {
		return true
	}
	mid := (nlo + nhi) / 2
	return t.anyIn(2*node, nlo, mid, lo, hi, least) || t.anyIn(2*node+1, mid, nhi, lo, hi, least)
}
