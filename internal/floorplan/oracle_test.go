package floorplan

import (
	"fmt"
	"sort"
)

// The pairwise scans below are the definitions Adjacencies and
// ValidateNoOverlap must reproduce: every pair of blocks tested in index
// order. They are O(B²) and serve only as test oracles.

// pairwiseValidateNoOverlap checks pairwise that no blocks overlap.
func pairwiseValidateNoOverlap(fp *Floorplan) error {
	for i := 0; i < len(fp.Blocks); i++ {
		for j := i + 1; j < len(fp.Blocks); j++ {
			a, b := fp.Blocks[i], fp.Blocks[j]
			ox := overlap1D(a.X, a.X+a.Width, b.X, b.X+b.Width)
			oy := overlap1D(a.Y, a.Y+a.Height, b.Y, b.Y+b.Height)
			if ox > geomTol && oy > geomTol {
				return fmt.Errorf("floorplan: blocks %q and %q overlap by %.3g×%.3g m", a.Name, b.Name, ox, oy)
			}
		}
	}
	return nil
}

// pairwiseAdjacencies computes all pairs of blocks that share an edge of
// positive length by testing every pair.
func pairwiseAdjacencies(fp *Floorplan) []Adjacency {
	var out []Adjacency
	for i := 0; i < len(fp.Blocks); i++ {
		for j := i + 1; j < len(fp.Blocks); j++ {
			a, b := fp.Blocks[i], fp.Blocks[j]
			// Left/right neighbours: a's right edge touches b's left edge
			// (or vice versa) and they overlap vertically.
			if touches(a.X+a.Width, b.X) || touches(b.X+b.Width, a.X) {
				if l := overlap1D(a.Y, a.Y+a.Height, b.Y, b.Y+b.Height); l > geomTol {
					out = append(out, Adjacency{I: i, J: j, SharedLen: l, Horizontal: true})
					continue
				}
			}
			// Top/bottom neighbours.
			if touches(a.Y+a.Height, b.Y) || touches(b.Y+b.Height, a.Y) {
				if l := overlap1D(a.X, a.X+a.Width, b.X, b.X+b.Width); l > geomTol {
					out = append(out, Adjacency{I: i, J: j, SharedLen: l, Horizontal: false})
				}
			}
		}
	}
	sort.Slice(out, func(x, y int) bool {
		if out[x].I != out[y].I {
			return out[x].I < out[y].I
		}
		return out[x].J < out[y].J
	})
	return out
}
