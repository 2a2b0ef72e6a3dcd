package floorplan

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewRejectsBad(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("empty floorplan should fail")
	}
	if _, err := New([]Block{{Name: "", Width: 1, Height: 1}}); err == nil {
		t.Fatal("empty name should fail")
	}
	if _, err := New([]Block{{Name: "a", Width: 0, Height: 1}}); err == nil {
		t.Fatal("zero width should fail")
	}
	if _, err := New([]Block{
		{Name: "a", Width: 1, Height: 1},
		{Name: "a", Width: 1, Height: 1, X: 2},
	}); err == nil {
		t.Fatal("duplicate name should fail")
	}
}

// TestNewRejectsOverflowingEdge: a block whose far edge X+Width or
// Y+Height rounds past the largest float has no finite bounds, so New and
// Parse refuse it.
func TestNewRejectsOverflowingEdge(t *testing.T) {
	for _, b := range []Block{
		{Name: "x", Width: 1e308, Height: 1e-3, X: 1e308},
		{Name: "y", Width: 1e-3, Height: 1e308, Y: 1e308},
	} {
		if _, err := New([]Block{b}); err == nil || !strings.Contains(err.Error(), "non-finite geometry") {
			t.Fatalf("block %+v: err = %v, want non-finite geometry", b, err)
		}
	}
	if _, err := Parse(strings.NewReader("a\t1e308\t1e-3\t1e308\t0\n")); err == nil {
		t.Fatal("Parse accepted a block whose right edge overflows")
	}
	fp, err := New([]Block{{Name: "edge", Width: 1e308, Height: 1e-3, X: 7e307}})
	if err != nil {
		t.Fatalf("a far edge below the largest float must pass: %v", err)
	}
	if w := fp.Width(); math.IsInf(w, 0) || w != 1e308 {
		t.Fatalf("Width() = %g", w)
	}
}

func TestBlockGeometry(t *testing.T) {
	b := Block{Name: "b", Width: 2, Height: 4, X: 1, Y: 3}
	if b.Area() != 8 {
		t.Fatalf("Area=%g", b.Area())
	}
	if b.CenterX() != 2 || b.CenterY() != 5 {
		t.Fatalf("centroid (%g,%g)", b.CenterX(), b.CenterY())
	}
	if !b.Contains(1, 3) || b.Contains(3, 3) || b.Contains(0.5, 4) {
		t.Fatal("Contains semantics wrong")
	}
}

func twoByTwo() *Floorplan {
	return MustNew([]Block{
		{Name: "sw", Width: 1, Height: 1, X: 0, Y: 0},
		{Name: "se", Width: 1, Height: 1, X: 1, Y: 0},
		{Name: "nw", Width: 1, Height: 1, X: 0, Y: 1},
		{Name: "ne", Width: 1, Height: 1, X: 1, Y: 1},
	})
}

func TestValidateTiling(t *testing.T) {
	if err := twoByTwo().Validate(); err != nil {
		t.Fatalf("2x2 tiling should validate: %v", err)
	}
	gap := MustNew([]Block{
		{Name: "a", Width: 1, Height: 1, X: 0, Y: 0},
		{Name: "b", Width: 1, Height: 1, X: 2, Y: 0}, // gap at x∈(1,2)
	})
	if err := gap.Validate(); err == nil {
		t.Fatal("gapped floorplan should fail Validate")
	}
	overlap := MustNew([]Block{
		{Name: "a", Width: 2, Height: 1, X: 0, Y: 0},
		{Name: "b", Width: 2, Height: 1, X: 1, Y: 0},
	})
	if err := overlap.ValidateNoOverlap(); err == nil {
		t.Fatal("overlapping blocks should fail")
	}
}

func TestAdjacencies(t *testing.T) {
	fp := twoByTwo()
	adj := fp.Adjacencies()
	if len(adj) != 4 {
		t.Fatalf("2x2 grid has 4 adjacencies, got %d: %+v", len(adj), adj)
	}
	// sw-se horizontal, sw-nw vertical, se-ne vertical, nw-ne horizontal.
	horiz := 0
	for _, a := range adj {
		if a.SharedLen != 1 {
			t.Fatalf("shared edge length %g, want 1", a.SharedLen)
		}
		if a.Horizontal {
			horiz++
		}
	}
	if horiz != 2 {
		t.Fatalf("want 2 horizontal adjacencies, got %d", horiz)
	}
}

func TestAdjacencyPartialEdge(t *testing.T) {
	fp := MustNew([]Block{
		{Name: "tall", Width: 1, Height: 2, X: 0, Y: 0},
		{Name: "short", Width: 1, Height: 1, X: 1, Y: 0.5},
	})
	adj := fp.Adjacencies()
	if len(adj) != 1 || math.Abs(adj[0].SharedLen-1) > 1e-12 || !adj[0].Horizontal {
		t.Fatalf("partial edge adjacency wrong: %+v", adj)
	}
	// Corner-touching blocks are NOT adjacent.
	corner := MustNew([]Block{
		{Name: "a", Width: 1, Height: 1, X: 0, Y: 0},
		{Name: "b", Width: 1, Height: 1, X: 1, Y: 1},
	})
	if len(corner.Adjacencies()) != 0 {
		t.Fatal("corner contact must not create an adjacency")
	}
}

func TestEdgeBlocks(t *testing.T) {
	fp := twoByTwo()
	left, err := fp.EdgeBlocks("left")
	if err != nil || len(left) != 2 {
		t.Fatalf("left edge: %v %v", left, err)
	}
	top, _ := fp.EdgeBlocks("top")
	names := map[int]bool{}
	for _, i := range top {
		names[i] = true
	}
	if !names[fp.Index("nw")] || !names[fp.Index("ne")] {
		t.Fatalf("top edge wrong: %v", top)
	}
	if _, err := fp.EdgeBlocks("diagonal"); err == nil {
		t.Fatal("bad edge name should error")
	}
}

func TestRasterize(t *testing.T) {
	fp := twoByTwo()
	cells := fp.Rasterize(4, 4)
	// Bottom-left cell belongs to "sw", top-right to "ne".
	if fp.Blocks[cells[0]].Name != "sw" {
		t.Fatalf("cell(0,0) = %q", fp.Blocks[cells[0]].Name)
	}
	if fp.Blocks[cells[15]].Name != "ne" {
		t.Fatalf("cell(3,3) = %q", fp.Blocks[cells[15]].Name)
	}
	for _, c := range cells {
		if c < 0 {
			t.Fatal("full tiling must cover all cells")
		}
	}
}

func TestParseWriteRoundTrip(t *testing.T) {
	fp := EV6()
	var buf bytes.Buffer
	if err := fp.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != fp.N() {
		t.Fatalf("round trip lost blocks: %d vs %d", got.N(), fp.N())
	}
	for i := range fp.Blocks {
		a, b := fp.Blocks[i], got.Blocks[i]
		if a.Name != b.Name || math.Abs(a.Width-b.Width) > 1e-9 || math.Abs(a.X-b.X) > 1e-9 {
			t.Fatalf("block %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("too few fields\n")); err == nil {
		t.Fatal("short line should fail")
	}
	if _, err := Parse(strings.NewReader("blk 1 2 x 4\n")); err == nil {
		t.Fatal("non-numeric field should fail")
	}
	fp, err := Parse(strings.NewReader("# comment\n\nblk\t0.001\t0.002\t0\t0\textra ignored\n"))
	if err != nil || fp.N() != 1 {
		t.Fatalf("comment/extra-field handling: %v", err)
	}
}

func TestEV6Floorplan(t *testing.T) {
	fp := EV6()
	if fp.N() != 18 {
		t.Fatalf("EV6 has %d blocks, want 18", fp.N())
	}
	if err := fp.Validate(); err != nil {
		t.Fatalf("EV6 must tile the die: %v", err)
	}
	if math.Abs(fp.Width()-0.016) > 1e-9 || math.Abs(fp.Height()-0.016) > 1e-9 {
		t.Fatalf("EV6 die %g×%g, want 16×16 mm", fp.Width(), fp.Height())
	}
	// Paper-critical geometry: IntReg near the top edge and in the right
	// half of the die (drives the Fig. 11 flow-direction result).
	ir := fp.Blocks[fp.Index("IntReg")]
	if ir.CenterY() < fp.Height()*0.7 {
		t.Fatalf("IntReg should be near the top: centerY=%g", ir.CenterY())
	}
	if ir.CenterX() < fp.Width()*0.55 {
		t.Fatalf("IntReg should be right of center: centerX=%g", ir.CenterX())
	}
	dc := fp.Blocks[fp.Index("Dcache")]
	if dc.CenterY() > ir.CenterY() {
		t.Fatal("Dcache should be below IntReg (farther from a top leading edge)")
	}
	// All Fig. 11 block names present.
	for _, n := range []string{"L2_left", "L2", "L2_right", "Icache", "Dcache", "Bpred", "DTB",
		"FPAdd", "FPReg", "FPMul", "FPMap", "IntMap", "IntQ", "IntReg", "IntExec", "FPQ", "LdStQ", "ITB"} {
		if fp.Index(n) < 0 {
			t.Fatalf("EV6 missing block %q", n)
		}
	}
}

func TestAthlonFloorplan(t *testing.T) {
	fp := Athlon()
	if fp.N() != 22 {
		t.Fatalf("Athlon has %d blocks, want 22 (paper Fig. 5)", fp.N())
	}
	if err := fp.Validate(); err != nil {
		t.Fatalf("Athlon must tile the die: %v", err)
	}
	p := AthlonPowers()
	if len(p) != fp.N() {
		t.Fatalf("powers cover %d blocks, floorplan has %d", len(p), fp.N())
	}
	var total float64
	for name, w := range p {
		if fp.Index(name) < 0 {
			t.Fatalf("power entry %q has no block", name)
		}
		if w < 0 {
			t.Fatalf("negative power for %q", name)
		}
		total += w
	}
	if total < 20 || total > 60 {
		t.Fatalf("Athlon total power %.1f W implausible", total)
	}
	for _, b := range []string{"blank1", "blank2", "blank3", "blank4"} {
		if p[b] != 0 {
			t.Fatalf("blank block %q must dissipate no power", b)
		}
	}
}

func TestCenterSourceDie(t *testing.T) {
	fp := CenterSourceDie(0.020, 0.020, 0.002, 0.002)
	if err := fp.Validate(); err != nil {
		t.Fatalf("center-source die must tile: %v", err)
	}
	hot := fp.Blocks[fp.Index("hot")]
	if math.Abs(hot.CenterX()-0.010) > 1e-12 || math.Abs(hot.CenterY()-0.010) > 1e-12 {
		t.Fatal("hot block not centered")
	}
	if math.Abs(fp.TotalArea()-4e-4) > 1e-12 {
		t.Fatalf("area %g", fp.TotalArea())
	}
}

func TestUniformDie(t *testing.T) {
	fp := UniformDie("die", 0.02, 0.02)
	if fp.N() != 1 || fp.TotalArea() != 4e-4 {
		t.Fatal("uniform die wrong")
	}
	if err := fp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStringRendering(t *testing.T) {
	s := EV6().String()
	if !strings.Contains(s, "legend:") || !strings.Contains(s, "IntReg") {
		t.Fatal("ASCII rendering missing legend")
	}
}

// Property: for random grid tilings, Validate passes, the adjacency count
// matches the grid structure, and rasterization covers every cell.
func TestRandomGridTilingProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nx, ny := 1+r.Intn(5), 1+r.Intn(5)
		// Random column widths and row heights.
		xs := make([]float64, nx+1)
		ys := make([]float64, ny+1)
		for i := 1; i <= nx; i++ {
			xs[i] = xs[i-1] + 0.5 + r.Float64()
		}
		for i := 1; i <= ny; i++ {
			ys[i] = ys[i-1] + 0.5 + r.Float64()
		}
		var blocks []Block
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				blocks = append(blocks, Block{
					Name:  "b" + string(rune('a'+ix)) + string(rune('a'+iy)),
					Width: xs[ix+1] - xs[ix], Height: ys[iy+1] - ys[iy],
					X: xs[ix], Y: ys[iy],
				})
			}
		}
		fp, err := New(blocks)
		if err != nil {
			return false
		}
		if fp.Validate() != nil {
			return false
		}
		wantAdj := nx*(ny-1) + ny*(nx-1)
		if len(fp.Adjacencies()) != wantAdj {
			return false
		}
		for _, c := range fp.Rasterize(8, 8) {
			if c < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: BlockAt is consistent with Contains for random points in EV6.
func TestBlockAtProperty(t *testing.T) {
	fp := EV6()
	f := func(u, v uint16) bool {
		x := float64(u) / 65536 * fp.Width()
		y := float64(v) / 65536 * fp.Height()
		i := fp.BlockAt(x, y)
		if i < 0 {
			return false // full tiling: every interior point is covered
		}
		return fp.Blocks[i].Contains(x, y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
