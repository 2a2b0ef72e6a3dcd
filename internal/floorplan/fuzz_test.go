package floorplan

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary text through the .flp parser. Invariants: never
// panic; any floorplan the parser accepts has only finite, positive block
// geometry (zero-area blocks, NaN/Inf coordinates and far edges past the
// largest float must be rejected) and a finite bounding box; and on it the
// sweep-based Adjacencies equals the pairwise scan exactly, and
// ValidateNoOverlap matches the scan in nil-ness and error text.
func FuzzParse(f *testing.F) {
	f.Add("a\t1e-3\t2e-3\t0\t0\nb\t1e-3\t2e-3\t1e-3\t0\n")
	f.Add("# comment\nblk 0.016 0.016 0 0 extra fields ignored\n")
	f.Add("zero\t0\t1e-3\t0\t0\n")
	f.Add("neg\t-1e-3\t1e-3\t0\t0\n")
	f.Add("nan\tNaN\t1e-3\t0\t0\n")
	f.Add("infx\t1e-3\t1e-3\tInf\t0\n")
	f.Add("dup\t1e-3\t1e-3\t0\t0\ndup\t1e-3\t1e-3\t1e-3\t0\n")
	f.Add("short 1 2\n")
	f.Add("huge\t1e300\t1e300\t-1e300\t1e300\n")
	f.Add("a\t1e308\t1e-3\t1e308\t0\n") // X+Width overflows to +Inf
	// Geometry against geomTol (1e-9 m): a sliver thinner than it between
	// two neighbours; corners that touch with zero overlap; edges just
	// within and just beyond it; blocks sharing one edge; a stack.
	f.Add("a\t1e-3\t1e-3\t0\t0\ns\t5e-10\t1e-3\t1e-3\t0\nb\t1e-3\t1e-3\t1.0000005e-3\t0\n")
	f.Add("a\t1e-3\t1e-3\t0\t0\nb\t1e-3\t1e-3\t1e-3\t1e-3\nc\t1e-3\t1e-3\t1e-3\t-1e-3\n")
	f.Add("a\t1e-3\t1e-3\t0\t0\nb\t1e-3\t1e-3\t1.0000009e-3\t0\nc\t1e-3\t1e-3\t-1.0000011e-3\t0\n")
	f.Add("a\t1e-3\t1e-3\t0\t0\nb\t1e-3\t1e-3\t0.9999991e-3\t1e-3\nc\t1e-3\t1e-3\t0\t-1.0000011e-3\n")
	f.Add("a\t1e-3\t2e-3\t0\t0\nb\t1e-3\t1e-3\t1e-3\t0\nc\t1e-3\t1e-3\t1e-3\t1e-3\nd\t2e-3\t1e-3\t0\t2e-3\n")
	f.Add("z\t1e-3\t1e-3\t5e-3\t0\na\t1e-3\t1e-3\t0\t0\nb\t1e-3\t1e-3\t0\t0\nc\t1e-3\t1e-3\t5e-4\t0\n")
	f.Fuzz(func(t *testing.T, data string) {
		fp, err := Parse(strings.NewReader(data))
		if err != nil {
			return
		}
		if fp.N() == 0 {
			t.Fatal("accepted a floorplan with no blocks")
		}
		for _, b := range fp.Blocks {
			if !(b.Width > 0) || !(b.Height > 0) {
				t.Fatalf("block %q: non-positive size %g×%g accepted", b.Name, b.Width, b.Height)
			}
			for _, v := range []float64{b.Width, b.Height, b.X, b.Y} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("block %q: non-finite geometry accepted", b.Name)
				}
			}
			if b.Name == "" {
				t.Fatal("empty block name accepted")
			}
		}
		minX, minY, maxX, maxY := fp.Bounds()
		for _, v := range []float64{minX, minY, maxX, maxY} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("non-finite bounds")
			}
		}
		adj, overlapErr := fp.Adjacencies(), fp.ValidateNoOverlap()
		_ = fp.Rasterize(8, 8)
		// The pairwise oracles are O(n²); bound their work per input.
		if fp.N() <= 128 {
			if want := pairwiseAdjacencies(fp); !reflect.DeepEqual(adj, want) {
				t.Fatalf("Adjacencies = %+v, pairwise scan = %+v", adj, want)
			}
			want := pairwiseValidateNoOverlap(fp)
			if (overlapErr == nil) != (want == nil) || (want != nil && overlapErr.Error() != want.Error()) {
				t.Fatalf("ValidateNoOverlap = %v, pairwise scan = %v", overlapErr, want)
			}
		}
	})
}
