// Package refsolver is an independent fine-grid reference for validating the
// compact thermal model, playing the role ANSYS plays in the paper's §3.2.
// It discretizes the silicon die into a 3-D finite-volume grid, applies the
// same laminar flat-plate convection correlations at the oil-washed top
// surface (with the oil boundary layer's thermal capacitance), injects power
// in the active-device layer at the bottom of the die, and solves steady
// states with conjugate gradients and transients with backward Euler.
//
// The solver shares no code with the compact model beyond the material
// property tables: it assembles a sparse finite-volume operator rather than
// a floorplan-derived lumped network, so agreement between the two is a
// meaningful validation (paper Figs. 2 and 3).
package refsolver

import (
	"fmt"
	"math"

	"repro/internal/floorplan"
	"repro/internal/linalg"
	"repro/internal/materials"
)

// Config describes the die, grid and oil flow.
type Config struct {
	// Die dimensions in meters.
	Width, Height, Thickness float64
	// Grid resolution. NZ is through-thickness.
	NX, NY, NZ int
	// AmbientK is the coolant free-stream temperature (K).
	AmbientK float64
	// Fluid and Velocity describe the oil flow over the top surface.
	Fluid    materials.Fluid
	Velocity float64
	// LocalH enables the position-dependent h(x) (flow along +x);
	// otherwise the plate-average h_L applies uniformly.
	LocalH bool
}

// Solver is an assembled finite-volume model. The conduction system is
// solved by conjugate gradients (linalg.SparseOperator): steady states are
// one preconditioned CG solve, transients one warm-started solve per
// backward-Euler step against a cached shifted operator.
type Solver struct {
	cfg        Config
	nx, ny, nz int
	dx, dy, dz float64
	n          int // total unknowns: nx·ny·nz silicon + nx·ny oil
	op         *linalg.SparseOperator
	capVec     []float64
	power      []float64 // per-node injected power, W
	ambIn      []float64 // Dirichlet ambient inflow per node (g_amb·T_amb), W
	ws         linalg.Workspace

	// beOp caches the (C/dt + G) operator for the current step size.
	beStep float64
	beOp   *linalg.SparseOperator
}

// New assembles the solver.
func New(cfg Config) (*Solver, error) {
	if cfg.NX < 2 || cfg.NY < 2 || cfg.NZ < 1 {
		return nil, fmt.Errorf("refsolver: grid too small %dx%dx%d", cfg.NX, cfg.NY, cfg.NZ)
	}
	if cfg.Width <= 0 || cfg.Height <= 0 || cfg.Thickness <= 0 {
		return nil, fmt.Errorf("refsolver: non-positive die dimensions")
	}
	if cfg.AmbientK == 0 {
		cfg.AmbientK = materials.AmbientK
	}
	if cfg.Fluid.Name == "" {
		cfg.Fluid = materials.MineralOil
	}
	if cfg.Velocity == 0 {
		cfg.Velocity = 10
	}
	flow := materials.LaminarFlow{Fluid: cfg.Fluid, Velocity: cfg.Velocity, PlateLen: cfg.Width}
	if err := flow.Validate(); err != nil {
		return nil, err
	}

	s := &Solver{cfg: cfg, nx: cfg.NX, ny: cfg.NY, nz: cfg.NZ}
	s.dx = cfg.Width / float64(cfg.NX)
	s.dy = cfg.Height / float64(cfg.NY)
	s.dz = cfg.Thickness / float64(cfg.NZ)
	nSi := s.nx * s.ny * s.nz
	s.n = nSi + s.nx*s.ny
	s.capVec = make([]float64, s.n)
	s.power = make([]float64, s.n)
	s.ambIn = make([]float64, s.n)

	k := materials.Silicon.Conductivity
	cellCap := materials.Silicon.VolHeatCap * s.dx * s.dy * s.dz
	var entries []linalg.Coord
	add := func(i, j int, g float64) {
		entries = append(entries,
			linalg.Coord{I: i, J: i, V: g},
			linalg.Coord{I: j, J: j, V: g},
			linalg.Coord{I: i, J: j, V: -g},
			linalg.Coord{I: j, J: i, V: -g})
	}
	gx := k * s.dy * s.dz / s.dx
	gy := k * s.dx * s.dz / s.dy
	gz := k * s.dx * s.dy / s.dz
	for iz := 0; iz < s.nz; iz++ {
		for iy := 0; iy < s.ny; iy++ {
			for ix := 0; ix < s.nx; ix++ {
				c := s.siIdx(ix, iy, iz)
				s.capVec[c] = cellCap
				if ix+1 < s.nx {
					add(c, s.siIdx(ix+1, iy, iz), gx)
				}
				if iy+1 < s.ny {
					add(c, s.siIdx(ix, iy+1, iz), gy)
				}
				if iz+1 < s.nz {
					add(c, s.siIdx(ix, iy, iz+1), gz)
				}
			}
		}
	}

	// Top surface (iz = nz-1): convection through a per-cell oil
	// boundary-layer node. Silicon cell center → surface is dz/2 of
	// conduction; then half the convection resistance to the oil node and
	// half from the oil node to the free stream.
	delta := flow.BoundaryLayerThickness()
	oilCellCap := cfg.Fluid.Density * cfg.Fluid.SpecificHeat * s.dx * s.dy * delta
	cellArea := s.dx * s.dy
	gHalfSi := k * cellArea / (s.dz / 2)
	for iy := 0; iy < s.ny; iy++ {
		for ix := 0; ix < s.nx; ix++ {
			var h float64
			if cfg.LocalH {
				x1 := float64(ix) * s.dx
				h = flow.SpanHeatTransferCoeff(x1, x1+s.dx)
			} else {
				h = flow.AvgHeatTransferCoeff()
			}
			gConvHalf := 2 * h * cellArea // half of R_conv = 1/(hA) → g = 2hA
			oil := s.oilIdx(ix, iy)
			s.capVec[oil] = oilCellCap
			top := s.siIdx(ix, iy, s.nz-1)
			// series: half-cell conduction + half convection
			gSeries := 1 / (1/gHalfSi + 1/gConvHalf)
			add(top, oil, gSeries)
			// oil node to ambient: appears on the diagonal only (Dirichlet
			// boundary folded into the operator).
			entries = append(entries, linalg.Coord{I: oil, J: oil, V: gConvHalf})
			s.ambIn[oil] = gConvHalf * cfg.AmbientK
		}
	}
	s.op = linalg.NewSparseOperator(linalg.NewCSR(s.n, entries), linalg.CGOptions{Tol: 1e-10, MaxIter: 50 * s.n})
	return s, nil
}

func (s *Solver) siIdx(ix, iy, iz int) int { return (iz*s.ny+iy)*s.nx + ix }
func (s *Solver) oilIdx(ix, iy int) int    { return s.nx*s.ny*s.nz + iy*s.nx + ix }

// ResetPower zeroes the injected power.
func (s *Solver) ResetPower() {
	for i := range s.power {
		s.power[i] = 0
	}
}

// AddUniformPower spreads total watts uniformly over the active layer
// (bottom cell layer, iz = 0 — the device side of a flipped die under IR).
func (s *Solver) AddUniformPower(watts float64) {
	per := watts / float64(s.nx*s.ny)
	for iy := 0; iy < s.ny; iy++ {
		for ix := 0; ix < s.nx; ix++ {
			s.power[s.siIdx(ix, iy, 0)] += per
		}
	}
}

// AddRectPower injects watts uniformly into active-layer cells whose centers
// fall inside the rectangle [x0,x0+w]×[y0,y0+h] (meters). It returns the
// number of cells hit (0 means the rectangle missed the grid).
func (s *Solver) AddRectPower(watts, x0, y0, w, h float64) int {
	var hit []int
	for iy := 0; iy < s.ny; iy++ {
		cy := (float64(iy) + 0.5) * s.dy
		for ix := 0; ix < s.nx; ix++ {
			cx := (float64(ix) + 0.5) * s.dx
			if cx >= x0 && cx < x0+w && cy >= y0 && cy < y0+h {
				hit = append(hit, s.siIdx(ix, iy, 0))
			}
		}
	}
	if len(hit) == 0 {
		return 0
	}
	per := watts / float64(len(hit))
	for _, c := range hit {
		s.power[c] += per
	}
	return len(hit)
}

// AddFloorplanPower rasterizes a floorplan onto the active layer and injects
// each block's power uniformly over its cells. The floorplan must have the
// same bounding box as the die.
func (s *Solver) AddFloorplanPower(fp *floorplan.Floorplan, blockPower map[string]float64) error {
	for name, w := range blockPower {
		bi := fp.Index(name)
		if bi < 0 {
			return fmt.Errorf("refsolver: unknown block %q", name)
		}
		b := fp.Blocks[bi]
		if n := s.AddRectPower(w, b.X, b.Y, b.Width, b.Height); n == 0 && w > 0 {
			return fmt.Errorf("refsolver: block %q smaller than one grid cell", name)
		}
	}
	return nil
}

// rhs builds P + G_dirichlet·T_amb (the ambient enters through the oil
// nodes' diagonal terms, recorded in ambIn at assembly).
func (s *Solver) rhs() []float64 {
	out := make([]float64, s.n)
	for i := range out {
		out[i] = s.power[i] + s.ambIn[i]
	}
	return out
}

// Steady solves the steady-state temperature field. The returned slice is
// indexed by node (use Probe/TopMap to extract views).
func (s *Solver) Steady() ([]float64, error) {
	x0 := make([]float64, s.n)
	linalg.Fill(x0, s.cfg.AmbientK)
	x, err := s.op.Solve(s.rhs(), x0, nil, &s.ws)
	if err != nil {
		return nil, fmt.Errorf("refsolver: steady solve: %w", err)
	}
	return x, nil
}

// AmbientField returns an all-ambient field (cold start).
func (s *Solver) AmbientField() []float64 {
	x := make([]float64, s.n)
	linalg.Fill(x, s.cfg.AmbientK)
	return x
}

// StepBE advances the field by one backward-Euler step of size dt. The
// (C/dt + G) operator is rebuilt only when dt changes; each step is one CG
// solve warm-started from the previous field.
func (s *Solver) StepBE(temp []float64, dt float64) error {
	if len(temp) != s.n {
		return fmt.Errorf("refsolver: field length %d, want %d", len(temp), s.n)
	}
	if dt <= 0 {
		return fmt.Errorf("refsolver: non-positive dt")
	}
	if s.beOp == nil || s.beStep != dt {
		shift := make([]float64, s.n)
		for i, c := range s.capVec {
			shift[i] = c / dt
		}
		// Transient steps are warm-started and error-damped, so they get a
		// looser tolerance and tighter iteration budget than the steady
		// solver's 1e-10/50n.
		s.beOp = linalg.NewSparseOperator(s.op.Matrix().Shifted(shift),
			linalg.CGOptions{Tol: 1e-9, MaxIter: 20 * s.n})
		s.beStep = dt
	}
	rhs := s.rhs()
	for i := range rhs {
		rhs[i] += s.capVec[i] / dt * temp[i]
	}
	// Solve into scratch and commit only on success, so a stalled CG cannot
	// corrupt the caller's field.
	sol := make([]float64, s.n)
	if _, err := s.beOp.Solve(rhs, temp, sol, &s.ws); err != nil {
		return fmt.Errorf("refsolver: transient solve: %w", err)
	}
	copy(temp, sol)
	return nil
}

// Transient advances temp by duration with fixed BE steps of size dt.
func (s *Solver) Transient(temp []float64, duration, dt float64) error {
	t := 0.0
	for t < duration-1e-12*duration {
		step := dt
		if step > duration-t {
			step = duration - t
		}
		if err := s.StepBE(temp, step); err != nil {
			return err
		}
		t += step
	}
	return nil
}

// ProbeCenter returns the temperature (K) at the die center of the active
// layer — the probe location of the paper's Fig. 2.
func (s *Solver) ProbeCenter(temp []float64) float64 {
	return temp[s.siIdx(s.nx/2, s.ny/2, 0)]
}

// ActiveLayerStats returns the max, min and spread (K) over the active
// (device) layer — the quantities compared in the paper's Fig. 3.
func (s *Solver) ActiveLayerStats(temp []float64) (tmax, tmin, dT float64) {
	tmax, tmin = math.Inf(-1), math.Inf(1)
	for iy := 0; iy < s.ny; iy++ {
		for ix := 0; ix < s.nx; ix++ {
			v := temp[s.siIdx(ix, iy, 0)]
			tmax = math.Max(tmax, v)
			tmin = math.Min(tmin, v)
		}
	}
	return tmax, tmin, tmax - tmin
}

// TopMap returns the top-surface (oil-side silicon) temperature map in
// Celsius, row-major with row 0 at y=0. This is "what the IR camera sees".
func (s *Solver) TopMap(temp []float64) []float64 {
	out := make([]float64, s.nx*s.ny)
	for iy := 0; iy < s.ny; iy++ {
		for ix := 0; ix < s.nx; ix++ {
			out[iy*s.nx+ix] = materials.KToC(temp[s.siIdx(ix, iy, s.nz-1)])
		}
	}
	return out
}

// GridDims returns (nx, ny, nz).
func (s *Solver) GridDims() (int, int, int) { return s.nx, s.ny, s.nz }
