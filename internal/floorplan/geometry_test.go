package floorplan

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// checkGeometry holds Adjacencies to the pairwise oracle exactly and
// ValidateNoOverlap to it in nil-ness and error text. It also holds the
// sweeps to their own contracts, which the final pair tests would hide:
// the touching sweeps list no pair that the adjacency test refuses, and
// overlapping lists exactly the blocks that overlap another one.
func checkGeometry(t *testing.T, label string, fp *Floorplan) {
	t.Helper()
	adj := fp.Adjacencies()
	if want := pairwiseAdjacencies(fp); !reflect.DeepEqual(adj, want) {
		t.Fatalf("%s: Adjacencies differ from the pairwise scan\n got %d: %+v\nwant %d: %+v\nblocks: %+v",
			label, len(adj), adj, len(want), want, fp.Blocks)
	}
	e := fp.edges()
	keys := touchingPairs(e.x0, e.x1, e.y0, e.y1, touchingPairs(e.y0, e.y1, e.x0, e.x1, nil))
	slices.Sort(keys)
	if n := len(slices.Compact(keys)); n != len(adj) {
		t.Fatalf("%s: the sweeps listed %d pairs for %d adjacencies\nblocks: %+v", label, n, len(adj), fp.Blocks)
	}
	got, want := fp.ValidateNoOverlap(), pairwiseValidateNoOverlap(fp)
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("%s: ValidateNoOverlap = %v, pairwise scan = %v\nblocks: %+v", label, got, want, fp.Blocks)
	}
	var overlapping []int
	for i, a := range fp.Blocks {
		for j, b := range fp.Blocks {
			if i != j && overlap1D(a.X, a.X+a.Width, b.X, b.X+b.Width) > geomTol &&
				overlap1D(a.Y, a.Y+a.Height, b.Y, b.Y+b.Height) > geomTol {
				overlapping = append(overlapping, i)
				break
			}
		}
	}
	if got := fp.overlapping(); !slices.Equal(got, overlapping) {
		t.Fatalf("%s: overlapping() = %v, want %v\nblocks: %+v", label, got, overlapping, fp.Blocks)
	}
}

// nearTol lists offsets that put edges against geomTol: zero, a quarter
// and half of it, on it, one part in 10⁷ and one ulp inside and beyond it,
// and twice it. The first four are at most geomTol/2, so two neighbours
// moved by them overlap by about geomTol at most.
var nearTol = []float64{
	0, 0, geomTol / 4, geomTol / 2,
	geomTol, geomTol * (1 - 1e-7), geomTol * (1 + 1e-7), 2 * geomTol,
	math.Nextafter(geomTol, 0), math.Nextafter(geomTol, 1),
}

func jitter(r *rand.Rand) float64 {
	return jitterUpTo(r, len(nearTol))
}

// jitterUpTo draws from the first n offsets of nearTol, with either sign.
func jitterUpTo(r *rand.Rand, n int) float64 {
	d := nearTol[r.Intn(n)]
	if r.Intn(2) == 0 {
		d = -d
	}
	return d
}

// span returns a low edge and an extent: usually a lattice interval with
// its edges moved by near-tolerance offsets, sometimes a sliver whose
// extent is at or below geomTol.
func span(r *rand.Rand, origin, unit float64, lattice int) (lo, ext float64) {
	k0 := r.Intn(lattice)
	lo = origin + float64(k0)*unit + jitter(r)
	if r.Intn(8) == 0 {
		return lo, geomTol * []float64{0.25, 0.5, 1, 1 + 1e-7}[r.Intn(4)]
	}
	k1 := k0 + 1 + r.Intn(3)
	hi := origin + float64(k1)*unit + jitter(r)
	return lo, hi - lo
}

// latticePlan places n blocks on a coarse lattice, so many edges coincide
// or nearly do: touching and overlapping blocks, corners that meet, edges
// shared by several blocks, stacked duplicates and slivers thinner than
// geomTol.
func latticePlan(r *rand.Rand, n int, origin, unit float64) []Block {
	lattice := 2 + r.Intn(6)
	var blocks []Block
	for len(blocks) < n {
		var b Block
		if len(blocks) > 0 && r.Intn(6) == 0 {
			b = blocks[r.Intn(len(blocks))] // a stacked duplicate
		} else {
			b.X, b.Width = span(r, origin, unit, lattice)
			b.Y, b.Height = span(r, origin, unit, lattice)
		}
		if b.Width > 0 && b.Height > 0 {
			b.Name = fmt.Sprintf("b%d", len(blocks))
			blocks = append(blocks, b)
		}
	}
	return blocks
}

// guillotinePlan tiles a rectangle by random recursive cuts, as real
// floorplans are drawn, then moves a third of the block edges by the first
// reach offsets of nearTol.
func guillotinePlan(r *rand.Rand, n, reach int, x, y, w, h float64) []Block {
	type rect struct{ x, y, w, h float64 }
	rects := []rect{{x, y, w, h}}
	for len(rects) < n {
		k := r.Intn(len(rects))
		c := rects[k]
		f := 0.2 + 0.6*r.Float64()
		var a, b rect
		if r.Intn(2) == 0 {
			a, b = rect{c.x, c.y, c.w * f, c.h}, rect{c.x + c.w*f, c.y, c.w - c.w*f, c.h}
		} else {
			a, b = rect{c.x, c.y, c.w, c.h * f}, rect{c.x, c.y + c.h*f, c.w, c.h - c.h*f}
		}
		rects[k] = a
		rects = append(rects, b)
	}
	blocks := make([]Block, len(rects))
	for i, c := range rects {
		b := Block{Name: fmt.Sprintf("g%d", i), X: c.x, Y: c.y, Width: c.w, Height: c.h}
		if r.Intn(3) == 0 {
			b.X += jitterUpTo(r, reach)
			b.Width += jitterUpTo(r, reach)
		}
		if r.Intn(3) == 0 {
			b.Y += jitterUpTo(r, reach)
			b.Height += jitterUpTo(r, reach)
		}
		blocks[i] = b
	}
	return blocks
}

// scales are the block sizes the property covers, meters: a few geomTol,
// a micron, a die, a meter, and sizes whose coordinates are so large that
// one ulp exceeds geomTol.
var scales = []float64{3e-9, 1e-6, 1e-3, 1, 1e3, 1e7}

func randomPlan(r *rand.Rand) []Block {
	unit := scales[r.Intn(len(scales))]
	origin := []float64{0, -5 * unit, 1e-3, 1e6}[r.Intn(4)]
	var blocks []Block
	switch r.Intn(4) {
	case 0:
		blocks = latticePlan(r, 1+r.Intn(40), origin, unit)
	case 1: // mostly overlap-free: edges move by at most geomTol/2
		blocks = guillotinePlan(r, 1+r.Intn(60), 4, origin, origin, 5*unit, 3*unit)
	case 2:
		blocks = guillotinePlan(r, 1+r.Intn(60), len(nearTol), origin, origin, 5*unit, 3*unit)
	default: // mixed scales: a tiling of one size beside blocks of another
		blocks = guillotinePlan(r, 1+r.Intn(30), 4, origin, origin, 4*unit, 4*unit)
		other := scales[r.Intn(len(scales))]
		for _, b := range latticePlan(r, 1+r.Intn(20), origin+4*unit, other) {
			b.Name = fmt.Sprintf("m%d", len(blocks))
			blocks = append(blocks, b)
		}
	}
	if r.Intn(4) > 0 { // index order decides which overlap is named first
		r.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
	}
	return blocks
}

// TestGeometryMatchesPairwiseOracle: on random and adversarial floorplans,
// the sweep-based Adjacencies equals the pairwise scan exactly and
// ValidateNoOverlap names the same first overlapping pair with the same
// amounts. The cases cover edges within and beyond geomTol, corners that
// touch with zero overlap, slivers thinner than geomTol, duplicate edges,
// stacked overlapping blocks and mixed scales, in shuffled index order.
func TestGeometryMatchesPairwiseOracle(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	cases := 3000
	if testing.Short() {
		cases = 500
	}
	checked := 0
	for c := 0; c < cases; c++ {
		blocks := randomPlan(r)
		fp, err := New(blocks)
		if err != nil {
			continue
		}
		checkGeometry(t, fmt.Sprintf("case %d", c), fp)
		checked++
	}
	if checked < cases*9/10 {
		t.Fatalf("only %d of %d generated floorplans were valid input", checked, cases)
	}

	// Fixed shapes the random cases reach only by chance.
	tol := geomTol
	fixed := map[string][]Block{
		"corner contact": {
			{Name: "a", Width: 1, Height: 1}, {Name: "b", Width: 1, Height: 1, X: 1, Y: 1},
		},
		"corner within tolerance": {
			{Name: "a", Width: 1, Height: 1}, {Name: "b", Width: 1, Height: 1, X: 1 + tol, Y: 1 - tol},
		},
		"sliver between neighbours": {
			{Name: "a", Width: 1, Height: 1}, {Name: "s", Width: tol / 2, Height: 1, X: 1},
			{Name: "b", Width: 1, Height: 1, X: 1 + tol/2},
		},
		"sliver pair touching on both sides": {
			{Name: "s", Width: tol / 2, Height: 1}, {Name: "t", Width: tol / 2, Height: 1, X: tol / 4},
		},
		"stack of identical blocks": {
			{Name: "z", Width: 1, Height: 1, X: 3}, {Name: "a", Width: 1, Height: 1},
			{Name: "b", Width: 1, Height: 1}, {Name: "c", Width: 1, Height: 1},
		},
		"overlap exactly geomTol": {
			{Name: "a", Width: 1e-3, Height: 1e-3}, {Name: "b", Width: 1e-3, Height: 1e-3, X: 1e-3 - tol},
		},
		"overlap just beyond geomTol": {
			{Name: "a", Width: 1e-3, Height: 1e-3}, {Name: "b", Width: 1e-3, Height: 1e-3, X: 1e-3 - 2*tol},
		},
		"first pair is not the first found": {
			{Name: "p", Width: 1, Height: 1, X: 10, Y: 10}, {Name: "q", Width: 1, Height: 1},
			{Name: "r", Width: 1, Height: 1, X: 0.5}, {Name: "s", Width: 1, Height: 1, X: 10.5, Y: 10.5},
		},
		"stack beside a column": {
			{Name: "c0", Width: 1, Height: 1}, {Name: "c1", Width: 1, Height: 1, Y: 1},
			{Name: "c2", Width: 1, Height: 1, Y: 2}, {Name: "s0", Width: 1, Height: 3, X: 1 - tol/2},
			{Name: "s1", Width: 1, Height: 3, X: 1 - tol/2},
		},
		// Differences of exactly geomTol: 2·geomTol − geomTol rounds to
		// geomTol itself, so these sit on every boundary of the sweeps.
		"x overlap of exactly geomTol, left block first": {
			{Name: "a", Width: 2 * tol, Height: 1}, {Name: "b", Width: 1, Height: 1, X: tol, Y: 0.5},
		},
		"x overlap of exactly geomTol, right block first": {
			{Name: "a", Width: 2 * tol, Height: 1, Y: 0.5}, {Name: "b", Width: 1, Height: 1, X: tol},
		},
		"y overlap of exactly geomTol": {
			{Name: "a", Width: 1, Height: 2 * tol}, {Name: "b", Width: 1, Height: 1, X: 0.5, Y: tol},
		},
		"extent of exactly geomTol": {
			{Name: "a", Width: tol, Height: 1}, {Name: "b", Width: 1, Height: 1, X: tol},
			{Name: "c", Width: 1, Height: tol, Y: 1}, {Name: "d", Width: 1, Height: 1, Y: 1 + tol},
			{Name: "e", Width: 1, Height: 1, X: -1, Y: 0.5},
		},
		"edges exactly geomTol apart": {
			{Name: "a", Width: tol, Height: 1}, {Name: "b", Width: 1, Height: 1, X: 2 * tol},
			{Name: "c", Width: 1, Height: 1, X: 3 * tol, Y: 1 + tol},
		},
		"huge coordinates": {
			{Name: "a", Width: 1, Height: 1, X: 1e7, Y: 1e7}, {Name: "b", Width: 1, Height: 1, X: 1e7 + 1, Y: 1e7},
			{Name: "c", Width: 1, Height: 1, X: 1e7 + 1 - 1e-9, Y: 1e7 + 1},
		},
	}
	for name, blocks := range fixed {
		checkGeometry(t, name, MustNew(blocks))
	}

	// Larger shapes: a shuffled jittered grid and a tiling of 1500 blocks.
	grid := GridDie(16e-3, 16e-3, 40, 40).Blocks
	for i := range grid {
		grid[i].X += jitter(r)
		grid[i].Width += jitter(r)
	}
	r.Shuffle(len(grid), func(i, j int) { grid[i], grid[j] = grid[j], grid[i] })
	checkGeometry(t, "jittered 40x40 grid", MustNew(grid))
	checkGeometry(t, "1500-block tiling", MustNew(guillotinePlan(r, 1500, 4, 0, 0, 16e-3, 16e-3)))
}

// BenchmarkAdjacencies times the adjacency sweep on grid dies.
func BenchmarkAdjacencies(b *testing.B) {
	for _, side := range []int{64, 128} {
		fp := GridDie(16e-3, 16e-3, side, side)
		b.Run(fmt.Sprintf("grid%d", side), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = fp.Adjacencies()
			}
		})
	}
}

// BenchmarkValidateNoOverlap times the overlap sweep on grid dies.
func BenchmarkValidateNoOverlap(b *testing.B) {
	for _, side := range []int{64, 128} {
		fp := GridDie(16e-3, 16e-3, side, side)
		b.Run(fmt.Sprintf("grid%d", side), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := fp.ValidateNoOverlap(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
