package floorplan

import "fmt"

// This file contains the two floorplans used by the paper's experiments.
//
// EV6 is an Alpha 21264-like floorplan with the 18 blocks listed in the
// paper's Fig. 11 table, on a 16×16 mm die (the die size used by the HotSpot
// distribution's ev6 example). The exact block geometry is a reconstruction:
// L2 occupies the bottom and the die flanks, caches sit above it, the FP
// cluster is on the upper-left of the core and the integer cluster
// (IntReg/IntExec, the usual hot spots) on the upper-right — consistent with
// the paper's observations that IntReg is near the top edge (cooled best by a
// top-to-bottom oil flow) and toward the right half of the die (cooled better
// by a right-to-left flow; see Fig. 11).
//
// Athlon is an AMD Athlon 64-like floorplan with the 22 blocks named in the
// paper's Fig. 5, including the four blank edge regions excluded from the
// coolest-temperature comparison in §3.2.

// EV6 returns the Alpha EV6-like floorplan (fresh copy).
func EV6() *Floorplan {
	mm := 1e-3
	return MustNew([]Block{
		{Name: "L2_left", Width: 4.9 * mm, Height: 6.2 * mm, X: 0, Y: 9.8 * mm},
		{Name: "L2", Width: 16 * mm, Height: 9.8 * mm, X: 0, Y: 0},
		{Name: "L2_right", Width: 4.9 * mm, Height: 6.2 * mm, X: 11.1 * mm, Y: 9.8 * mm},
		{Name: "Icache", Width: 3.1 * mm, Height: 2.6 * mm, X: 4.9 * mm, Y: 9.8 * mm},
		{Name: "Dcache", Width: 3.1 * mm, Height: 2.6 * mm, X: 8.0 * mm, Y: 9.8 * mm},
		{Name: "Bpred", Width: 1.0333333e-3, Height: 0.7 * mm, X: 4.9 * mm, Y: 12.4 * mm},
		{Name: "DTB", Width: 1.0333333e-3, Height: 0.7 * mm, X: 5.9333333e-3, Y: 12.4 * mm},
		{Name: "FPAdd", Width: 1.0333334e-3, Height: 0.7 * mm, X: 6.9666666e-3, Y: 12.4 * mm},
		{Name: "FPReg", Width: 1.0333333e-3, Height: 0.7 * mm, X: 4.9 * mm, Y: 13.1 * mm},
		{Name: "FPMul", Width: 1.0333333e-3, Height: 0.7 * mm, X: 5.9333333e-3, Y: 13.1 * mm},
		{Name: "FPMap", Width: 1.0333334e-3, Height: 0.7 * mm, X: 6.9666666e-3, Y: 13.1 * mm},
		{Name: "FPQ", Width: 3.1 * mm, Height: 2.2 * mm, X: 4.9 * mm, Y: 13.8 * mm},
		{Name: "LdStQ", Width: 1.8 * mm, Height: 1.8 * mm, X: 8.0 * mm, Y: 12.4 * mm},
		{Name: "ITB", Width: 1.3 * mm, Height: 1.8 * mm, X: 9.8 * mm, Y: 12.4 * mm},
		{Name: "IntMap", Width: 0.8 * mm, Height: 1.8 * mm, X: 8.0 * mm, Y: 14.2 * mm},
		{Name: "IntQ", Width: 1.2 * mm, Height: 1.8 * mm, X: 8.8 * mm, Y: 14.2 * mm},
		{Name: "IntReg", Width: 0.55 * mm, Height: 1.8 * mm, X: 10.0 * mm, Y: 14.2 * mm},
		{Name: "IntExec", Width: 0.55 * mm, Height: 1.8 * mm, X: 10.55 * mm, Y: 14.2 * mm},
	})
}

// Athlon returns the AMD Athlon 64-like floorplan with the 22 blocks of the
// paper's Fig. 5 (fresh copy). Die is 14×14 mm.
func Athlon() *Floorplan {
	mm := 1e-3
	return MustNew([]Block{
		{Name: "l2cache", Width: 14 * mm, Height: 6 * mm, X: 0, Y: 0},

		{Name: "blank3", Width: 1 * mm, Height: 3 * mm, X: 0, Y: 6 * mm},
		{Name: "l1d", Width: 3.5 * mm, Height: 3 * mm, X: 1 * mm, Y: 6 * mm},
		{Name: "lsq", Width: 1.5 * mm, Height: 3 * mm, X: 4.5 * mm, Y: 6 * mm},
		{Name: "l1i", Width: 3.5 * mm, Height: 3 * mm, X: 6 * mm, Y: 6 * mm},
		{Name: "mem_ctl", Width: 3.5 * mm, Height: 3 * mm, X: 9.5 * mm, Y: 6 * mm},
		{Name: "blank4", Width: 1 * mm, Height: 3 * mm, X: 13 * mm, Y: 6 * mm},

		{Name: "fetch", Width: 2.5 * mm, Height: 2.5 * mm, X: 0, Y: 9 * mm},
		{Name: "dtlb", Width: 1.5 * mm, Height: 2.5 * mm, X: 2.5 * mm, Y: 9 * mm},
		{Name: "sched", Width: 2 * mm, Height: 2.5 * mm, X: 4 * mm, Y: 9 * mm},
		{Name: "rob_irf", Width: 2 * mm, Height: 2.5 * mm, X: 6 * mm, Y: 9 * mm},
		{Name: "fp_sched", Width: 2 * mm, Height: 2.5 * mm, X: 8 * mm, Y: 9 * mm},
		{Name: "frf", Width: 2 * mm, Height: 2.5 * mm, X: 10 * mm, Y: 9 * mm},
		{Name: "sse", Width: 2 * mm, Height: 2.5 * mm, X: 12 * mm, Y: 9 * mm},

		{Name: "blank1", Width: 2.5 * mm, Height: 2.5 * mm, X: 0, Y: 11.5 * mm},
		{Name: "clock", Width: 1.5 * mm, Height: 2.5 * mm, X: 2.5 * mm, Y: 11.5 * mm},
		{Name: "clockd1", Width: 1 * mm, Height: 2.5 * mm, X: 4 * mm, Y: 11.5 * mm},
		{Name: "clockd2", Width: 1 * mm, Height: 2.5 * mm, X: 5 * mm, Y: 11.5 * mm},
		{Name: "clockd3", Width: 1 * mm, Height: 2.5 * mm, X: 6 * mm, Y: 11.5 * mm},
		{Name: "fp0", Width: 2.5 * mm, Height: 2.5 * mm, X: 7 * mm, Y: 11.5 * mm},
		{Name: "bus_etc", Width: 2 * mm, Height: 2.5 * mm, X: 9.5 * mm, Y: 11.5 * mm},
		{Name: "blank2", Width: 2.5 * mm, Height: 2.5 * mm, X: 11.5 * mm, Y: 11.5 * mm},
	})
}

// AthlonDieThickness is the silicon thickness used with the Athlon
// floorplan (thinned for IR transparency, as in Mesa-Martinez et al.).
const AthlonDieThickness = 0.3e-3

// AthlonPowers returns the per-block average power (W) used for the paper's
// Fig. 4/5 experiments. The original values were derived by Mesa-Martinez et
// al. (ISCA 2007) from IR measurements of an Athlon 64 running SPEC
// workloads; that table is not public, so these are reconstructed to match
// the temperatures the paper reports for the same experiment (hottest block
// "sched" ≈ 73 °C, coolest ≈ 45 °C under OIL-SILICON with the secondary
// path modeled). See DESIGN.md §2 for the substitution rationale.
func AthlonPowers() map[string]float64 {
	return map[string]float64{
		"l2cache":  4.2,
		"blank1":   0,
		"blank2":   0,
		"blank3":   0,
		"blank4":   0,
		"l1d":      2.2,
		"lsq":      1.2,
		"l1i":      1.7,
		"mem_ctl":  1.3,
		"sched":    3.1,
		"rob_irf":  2.0,
		"fetch":    1.6,
		"dtlb":     0.6,
		"fp_sched": 0.8,
		"frf":      0.7,
		"sse":      1.0,
		"clock":    1.4,
		"clockd1":  0.4,
		"clockd2":  0.4,
		"clockd3":  0.4,
		"fp0":      1.0,
		"bus_etc":  1.0,
	}
}

// UniformDie returns a single-block floorplan of the given size, used by the
// validation experiments (Figs. 2-3) and as a convenient quickstart die.
func UniformDie(name string, w, h float64) *Floorplan {
	return MustNew([]Block{{Name: name, Width: w, Height: h, X: 0, Y: 0}})
}

// GridDie returns an nx×ny uniform tiling of a w×h die with blocks named
// "c<ix>_<iy>". The compact model on a grid floorplan approaches the
// fine-grid reference solver, which is how the Fig. 3 validation uses it.
func GridDie(w, h float64, nx, ny int) *Floorplan {
	blocks := make([]Block, 0, nx*ny)
	dx, dy := w/float64(nx), h/float64(ny)
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			blocks = append(blocks, Block{
				Name:  fmt.Sprintf("c%d_%d", ix, iy),
				Width: dx, Height: dy,
				X: float64(ix) * dx, Y: float64(iy) * dy,
			})
		}
	}
	return MustNew(blocks)
}

// CenterSourceDie returns a die of size w×h with a centered hot block of
// size hw×hh named "hot" and the surrounding frame split into four blocks
// ("west", "east", "south", "north"). Used by the Fig. 3 steady-state
// validation experiment (2×2 mm source in a 20×20 mm die).
func CenterSourceDie(w, h, hw, hh float64) *Floorplan {
	x0 := (w - hw) / 2
	y0 := (h - hh) / 2
	return MustNew([]Block{
		{Name: "hot", Width: hw, Height: hh, X: x0, Y: y0},
		{Name: "west", Width: x0, Height: h, X: 0, Y: 0},
		{Name: "east", Width: w - x0 - hw, Height: h, X: x0 + hw, Y: 0},
		{Name: "south", Width: hw, Height: y0, X: x0, Y: 0},
		{Name: "north", Width: hw, Height: h - y0 - hh, X: x0, Y: y0 + hh},
	})
}
