// Package floorplan represents chip floorplans: named rectangular blocks
// tiling a die (the paper's §2 die geometry; DESIGN.md §2 records the
// reconstruction of the two floorplans the paper uses). It provides the
// HotSpot ".flp" interchange format, geometric validation, block adjacency
// with shared-edge lengths (needed to build lateral thermal resistances),
// and rasterization onto regular grids (needed by the reference solver, the
// thermal-map renderers, and the IR camera model).
//
// The package ships the two floorplans used in the paper's experiments: an
// Alpha EV6-like core (18 blocks, 16×16 mm) and an AMD Athlon 64-like die
// (21 blocks) matching the block list of the paper's Fig. 5.
package floorplan

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Block is an axis-aligned rectangle on the die. Units are meters.
// X grows rightward, Y grows upward; (X, Y) is the lower-left corner.
type Block struct {
	Name          string
	Width, Height float64
	X, Y          float64
}

// Area returns the block area in m².
func (b Block) Area() float64 { return b.Width * b.Height }

// CenterX returns the x coordinate of the block centroid.
func (b Block) CenterX() float64 { return b.X + b.Width/2 }

// CenterY returns the y coordinate of the block centroid.
func (b Block) CenterY() float64 { return b.Y + b.Height/2 }

// Contains reports whether point (x, y) lies inside the block (closed on the
// low edges, open on the high edges, so a tiling covers each point once).
func (b Block) Contains(x, y float64) bool {
	return x >= b.X && x < b.X+b.Width && y >= b.Y && y < b.Y+b.Height
}

// Floorplan is an ordered list of blocks tiling a rectangular die.
type Floorplan struct {
	Blocks []Block
	byName map[string]int
}

// New builds a floorplan from blocks and validates name uniqueness and
// geometry: sizes must be positive and all coordinates finite, far edges
// X+Width and Y+Height included (a zero-area block has no thermal mass and
// would divide the RC assembly by zero; NaN or Inf geometry would poison
// every downstream bound and resistance).
func New(blocks []Block) (*Floorplan, error) {
	fp := &Floorplan{Blocks: blocks, byName: make(map[string]int, len(blocks))}
	for i, b := range blocks {
		if b.Name == "" {
			return nil, fmt.Errorf("floorplan: block %d has an empty name", i)
		}
		if !(b.Width > 0) || !(b.Height > 0) { // also rejects NaN
			return nil, fmt.Errorf("floorplan: block %q has non-positive size %g×%g", b.Name, b.Width, b.Height)
		}
		for _, v := range []float64{b.Width, b.Height, b.X, b.Y, b.X + b.Width, b.Y + b.Height} {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return nil, fmt.Errorf("floorplan: block %q has non-finite geometry", b.Name)
			}
		}
		if _, dup := fp.byName[b.Name]; dup {
			return nil, fmt.Errorf("floorplan: duplicate block name %q", b.Name)
		}
		fp.byName[b.Name] = i
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("floorplan: no blocks")
	}
	return fp, nil
}

// MustNew is New that panics on error; intended for the compiled-in
// floorplans whose validity is covered by tests.
func MustNew(blocks []Block) *Floorplan {
	fp, err := New(blocks)
	if err != nil {
		panic(err)
	}
	return fp
}

// N returns the number of blocks.
func (fp *Floorplan) N() int { return len(fp.Blocks) }

// Index returns the index of the named block, or -1.
func (fp *Floorplan) Index(name string) int {
	if i, ok := fp.byName[name]; ok {
		return i
	}
	return -1
}

// Names returns the block names in floorplan order.
func (fp *Floorplan) Names() []string {
	out := make([]string, len(fp.Blocks))
	for i, b := range fp.Blocks {
		out[i] = b.Name
	}
	return out
}

// Bounds returns the bounding box (minX, minY, maxX, maxY) of all blocks.
func (fp *Floorplan) Bounds() (minX, minY, maxX, maxY float64) {
	minX, minY = math.Inf(1), math.Inf(1)
	maxX, maxY = math.Inf(-1), math.Inf(-1)
	for _, b := range fp.Blocks {
		minX = math.Min(minX, b.X)
		minY = math.Min(minY, b.Y)
		maxX = math.Max(maxX, b.X+b.Width)
		maxY = math.Max(maxY, b.Y+b.Height)
	}
	return
}

// Width returns the die width (bounding box).
func (fp *Floorplan) Width() float64 {
	minX, _, maxX, _ := fp.Bounds()
	return maxX - minX
}

// Height returns the die height (bounding box).
func (fp *Floorplan) Height() float64 {
	_, minY, _, maxY := fp.Bounds()
	return maxY - minY
}

// TotalArea returns the sum of block areas.
func (fp *Floorplan) TotalArea() float64 {
	var a float64
	for _, b := range fp.Blocks {
		a += b.Area()
	}
	return a
}

// Validate checks that no two blocks overlap and that the blocks tile the
// bounding box without gaps (within tolerance). A floorplan that merely must
// not overlap (e.g. sparse sensor sites) can use ValidateNoOverlap.
func (fp *Floorplan) Validate() error {
	if err := fp.ValidateNoOverlap(); err != nil {
		return err
	}
	minX, minY, maxX, maxY := fp.Bounds()
	dieArea := (maxX - minX) * (maxY - minY)
	if math.Abs(dieArea-fp.TotalArea()) > geomTol+1e-6*dieArea {
		return fmt.Errorf("floorplan: blocks cover %.6g m² of a %.6g m² die (gap or overhang)", fp.TotalArea(), dieArea)
	}
	return nil
}

// EdgeBlocks returns the indices of blocks touching the given die edge.
// The edge is one of "left", "right", "top", "bottom".
func (fp *Floorplan) EdgeBlocks(edge string) ([]int, error) {
	minX, minY, maxX, maxY := fp.Bounds()
	var out []int
	for i, b := range fp.Blocks {
		var on bool
		switch edge {
		case "left":
			on = touches(b.X, minX)
		case "right":
			on = touches(b.X+b.Width, maxX)
		case "top":
			on = touches(b.Y+b.Height, maxY)
		case "bottom":
			on = touches(b.Y, minY)
		default:
			return nil, fmt.Errorf("floorplan: unknown edge %q", edge)
		}
		if on {
			out = append(out, i)
		}
	}
	return out, nil
}

// BlockAt returns the index of the block containing (x, y), or -1.
func (fp *Floorplan) BlockAt(x, y float64) int {
	for i, b := range fp.Blocks {
		if b.Contains(x, y) {
			return i
		}
	}
	return -1
}

// Rasterize maps the floorplan onto an nx×ny grid covering the bounding box
// and returns, for each cell (row-major, row 0 at the die bottom), the index
// of the block containing the cell center (or -1 for uncovered cells).
func (fp *Floorplan) Rasterize(nx, ny int) []int {
	minX, minY, maxX, maxY := fp.Bounds()
	dx := (maxX - minX) / float64(nx)
	dy := (maxY - minY) / float64(ny)
	cells := make([]int, nx*ny)
	for iy := 0; iy < ny; iy++ {
		y := minY + (float64(iy)+0.5)*dy
		for ix := 0; ix < nx; ix++ {
			x := minX + (float64(ix)+0.5)*dx
			cells[iy*nx+ix] = fp.BlockAt(x, y)
		}
	}
	return cells
}

// Parse reads a floorplan in the HotSpot ".flp" format:
//
//	# comment
//	<name>\t<width>\t<height>\t<left-x>\t<bottom-y>
//
// Fields may be separated by any run of spaces or tabs. Extra fields (the
// optional HotSpot resistivity/capacitance overrides) are ignored.
func Parse(r io.Reader) (*Floorplan, error) { return parse(r, 0) }

// MaxInlineBlocks bounds a floorplan that arrives as client input, an
// inline .flp in a served request or a scenario spec: it is the block count
// of the largest named grid, 128×128. The geometry checks are near-linear,
// so without it nothing would bound the model such a floorplan builds.
const MaxInlineBlocks = 128 * 128

// ParseInline parses a client-supplied .flp: it refuses the text once it
// holds more than MaxInlineBlocks blocks, and refuses blocks that overlap.
func ParseInline(flp string) (*Floorplan, error) {
	fp, err := parse(strings.NewReader(flp), MaxInlineBlocks)
	if err != nil {
		return nil, err
	}
	if err := fp.ValidateNoOverlap(); err != nil {
		return nil, err
	}
	return fp, nil
}

// parse reads a .flp; maxBlocks > 0 caps the block count.
func parse(r io.Reader, maxBlocks int) (*Floorplan, error) {
	var blocks []Block
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		if len(f) < 5 {
			return nil, fmt.Errorf("floorplan: line %d: want ≥5 fields, got %d", line, len(f))
		}
		vals := make([]float64, 4)
		for k := 0; k < 4; k++ {
			v, err := strconv.ParseFloat(f[k+1], 64)
			if err != nil {
				return nil, fmt.Errorf("floorplan: line %d field %d: %v", line, k+2, err)
			}
			vals[k] = v
		}
		if maxBlocks > 0 && len(blocks) == maxBlocks {
			return nil, fmt.Errorf("floorplan: line %d: more than %d blocks", line, maxBlocks)
		}
		blocks = append(blocks, Block{Name: f[0], Width: vals[0], Height: vals[1], X: vals[2], Y: vals[3]})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return New(blocks)
}

// Write emits the floorplan in the HotSpot ".flp" format.
func (fp *Floorplan) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# <name>\t<width>\t<height>\t<left-x>\t<bottom-y>  (meters)")
	for _, b := range fp.Blocks {
		fmt.Fprintf(bw, "%s\t%.6e\t%.6e\t%.6e\t%.6e\n", b.Name, b.Width, b.Height, b.X, b.Y)
	}
	return bw.Flush()
}

// String renders a coarse ASCII map of the floorplan (top row first), useful
// for CLI inspection.
func (fp *Floorplan) String() string {
	const nx, ny = 48, 24
	cells := fp.Rasterize(nx, ny)
	glyphs := "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	var sb strings.Builder
	for iy := ny - 1; iy >= 0; iy-- {
		for ix := 0; ix < nx; ix++ {
			bi := cells[iy*nx+ix]
			if bi < 0 {
				sb.WriteByte('.')
			} else {
				sb.WriteByte(glyphs[bi%len(glyphs)])
			}
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("legend:\n")
	for i, b := range fp.Blocks {
		fmt.Fprintf(&sb, "  %c %s\n", glyphs[i%len(glyphs)], b.Name)
	}
	return sb.String()
}
