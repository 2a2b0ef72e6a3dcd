package hotspot

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/materials"
	"repro/internal/pool"
	"repro/internal/rcnet"
)

// PowerVector expands a per-block power map (W, keyed by block name) into a
// full node-power vector. Unknown block names are an error; blocks absent
// from the map dissipate zero.
func (m *Model) PowerVector(perBlock map[string]float64) ([]float64, error) {
	p := make([]float64, m.net.N())
	fp := m.cfg.Floorplan
	for name, w := range perBlock {
		bi := fp.Index(name)
		if bi < 0 {
			return nil, fmt.Errorf("hotspot: power for unknown block %q", name)
		}
		if w < 0 {
			return nil, fmt.Errorf("hotspot: negative power %g for block %q", w, name)
		}
		p[m.blockNode[bi]] = w
	}
	return p, nil
}

// BlockPowerVector expands per-block powers given in floorplan order.
func (m *Model) BlockPowerVector(perBlock []float64) ([]float64, error) {
	if len(perBlock) != m.cfg.Floorplan.N() {
		return nil, fmt.Errorf("hotspot: got %d block powers, floorplan has %d", len(perBlock), m.cfg.Floorplan.N())
	}
	p := make([]float64, m.net.N())
	for bi, w := range perBlock {
		if w < 0 {
			return nil, fmt.Errorf("hotspot: negative power %g for block %d", w, bi)
		}
		p[m.blockNode[bi]] = w
	}
	return p, nil
}

// Result holds node temperatures (Kelvin) for one model state.
type Result struct {
	model *Model
	Temps []float64 // all node temperatures, K
}

// NewResult wraps a raw temperature vector.
func (m *Model) NewResult(temps []float64) *Result {
	return &Result{model: m, Temps: temps}
}

// BlockK returns the named block's silicon temperature in Kelvin.
func (r *Result) BlockK(name string) float64 {
	bi := r.model.cfg.Floorplan.Index(name)
	if bi < 0 {
		panic(fmt.Sprintf("hotspot: unknown block %q", name))
	}
	return r.Temps[r.model.blockNode[bi]]
}

// BlockC returns the named block's silicon temperature in Celsius.
func (r *Result) BlockC(name string) float64 { return materials.KToC(r.BlockK(name)) }

// BlocksC returns all block temperatures in floorplan order, Celsius.
func (r *Result) BlocksC() []float64 {
	out := make([]float64, len(r.model.blockNode))
	for i, n := range r.model.blockNode {
		out[i] = materials.KToC(r.Temps[n])
	}
	return out
}

// BlocksK returns all block temperatures in floorplan order, Kelvin.
func (r *Result) BlocksK() []float64 {
	out := make([]float64, len(r.model.blockNode))
	for i, n := range r.model.blockNode {
		out[i] = r.Temps[n]
	}
	return out
}

// Hottest returns the name and Celsius temperature of the hottest block.
func (r *Result) Hottest() (string, float64) {
	temps := r.BlocksC()
	bi, bv := 0, temps[0]
	for i, v := range temps {
		if v > bv {
			bi, bv = i, v
		}
	}
	return r.model.cfg.Floorplan.Blocks[bi].Name, bv
}

// Coolest returns the name and Celsius temperature of the coolest block.
func (r *Result) Coolest() (string, float64) {
	temps := r.BlocksC()
	bi, bv := 0, temps[0]
	for i, v := range temps {
		if v < bv {
			bi, bv = i, v
		}
	}
	return r.model.cfg.Floorplan.Blocks[bi].Name, bv
}

// Spread returns the across-die temperature difference max−min (K or °C,
// they are the same for a difference).
func (r *Result) Spread() float64 {
	_, hi := r.Hottest()
	_, lo := r.Coolest()
	return hi - lo
}

// AverageC returns the area-weighted average die temperature in Celsius
// (the paper compares cross-die averages between the two packages).
func (r *Result) AverageC() float64 {
	fp := r.model.cfg.Floorplan
	var sum, area float64
	for i, b := range fp.Blocks {
		sum += materials.KToC(r.Temps[r.model.blockNode[i]]) * b.Area()
		area += b.Area()
	}
	return sum / area
}

// Grid rasterizes the block temperatures onto an nx×ny Celsius grid
// (row-major, row 0 at the die bottom). Used by the map renderers and the
// IR camera model.
func (r *Result) Grid(nx, ny int) []float64 {
	cells := r.model.cfg.Floorplan.Rasterize(nx, ny)
	out := make([]float64, len(cells))
	blocks := r.BlocksC()
	for i, bi := range cells {
		if bi < 0 {
			out[i] = materials.KToC(r.model.net.Ambient())
		} else {
			out[i] = blocks[bi]
		}
	}
	return out
}

// BlocksCInto writes the block temperatures (°C, floorplan order) of a raw
// node-temperature vector into dst (length = block count). It is the
// allocation-free form of NewResult(temps).BlocksC() for per-step loops.
func (m *Model) BlocksCInto(temps, dst []float64) {
	for bi, node := range m.blockNode {
		dst[bi] = materials.KToC(temps[node])
	}
}

// SteadyState solves the equilibrium temperatures for the node-power vector
// (from PowerVector/BlockPowerVector).
func (m *Model) SteadyState(power []float64) *Result {
	return m.NewResult(m.solver.SteadyState(power))
}

// AmbientState returns an all-ambient temperature vector (cold start).
func (m *Model) AmbientState() []float64 { return m.solver.AmbientVector() }

// Transient advances the temperature state in place by duration seconds
// under constant power, using backward Euler with the given step. Backward
// Euler is the default because OIL-SILICON networks are stiff (the tiny oil
// boundary-layer capacitance sits next to the silicon mass). It steps the
// model's one shared width-1 rcnet session, so it must not run concurrently
// on one model; concurrent transients go through the lockstep replay APIs
// (ReplayBatchResults, ReplayFinalPeak, RunLoops).
func (m *Model) Transient(temps, power []float64, duration, dt float64) error {
	return m.solver.TransientBE(temps, power, duration, dt)
}

// TransientAdaptive advances the state with the HotSpot-style adaptive RK4
// integrator (accuracy reference; slower on stiff oil networks).
func (m *Model) TransientAdaptive(temps, power []float64, duration float64, absTol float64) error {
	_, err := m.solver.Transient(temps, power, duration, rcnet.TransientOptions{AbsTol: absTol})
	return err
}

// TracePoint is one sampled instant of a trace-driven simulation.
type TracePoint struct {
	Time   float64
	BlockC []float64 // block temperatures in floorplan order, °C
}

// LoopJob is one closed-loop co-simulation for RunLoops: a temperature
// state stepped at a fixed interval under block powers that Power computes,
// before every step, from that live state.
type LoopJob struct {
	Model *Model
	// Temps is the initial state, advanced in place; Power reads the live
	// state through it.
	Temps []float64
	// Step is the backward-Euler step (s). Every step is exactly Step long.
	Step float64
	// Power fills the per-block power (floorplan order, W) of the next
	// step. io.EOF ends the job with the steps taken so far standing; any
	// other error fails it.
	Power func(blockPower []float64) error
}

// RunLoops runs closed-loop jobs across a worker pool (workers ≤ 0 =
// GOMAXPROCS) and returns per-job errors indexed like jobs. It is the
// stepping core behind ReplayBatchResults with a second power source: jobs
// are dealt round-robin across workers, and each step fills every live
// same-model same-step job's power, then solves them all in one batched
// step. A job whose Power fails or panics, whose block power is
// negative or non-finite, or whose solve stalls fails alone and keeps the
// state of its last good step. Per-job results are bit-identical at any
// worker count.
func RunLoops(jobs []LoopJob, workers int) []error {
	rj := make([]replayJob, len(jobs))
	for j, job := range jobs {
		rj[j] = loopJob(job)
	}
	return replay(rj, workers)
}

// loopJob adapts a closed loop to the stepping core: the job's step, and
// a block-power fill validated and expanded onto block nodes through a
// buffer the job owns. It records nothing: a closed loop reads its own
// state.
func loopJob(job LoopJob) replayJob {
	m := job.Model
	if m == nil {
		return replayJob{err: errors.New("nil model")}
	}
	rj := replayJob{m: m, step: job.Step, temps: job.Temps}
	if job.Power != nil {
		blockPower := make([]float64, m.cfg.Floorplan.N())
		rj.fill = func(power []float64) error {
			if err := job.Power(blockPower); err != nil {
				return err
			}
			clear(power)
			for bi, w := range blockPower {
				if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
					return fmt.Errorf("hotspot: invalid power %g for block %d", w, bi)
				}
				power[m.blockNode[bi]] = w
			}
			return nil
		}
	}
	return rj
}

// replayJob is one replay on the stepping core, built by an adapter
// (rowJob, loopJob): the model and step it groups under, its initial
// state, and its power fill, which ends the job with io.EOF. record, when
// set, observes the state at t = 0 and after every step: point recording
// (replayPoints), the final/peak reduction (ReplayFinalPeak), or nil for
// closed loops. err fails the job before grouping; wrap, when set, adds
// the adapter's context (the row it reached) to a failure.
type replayJob struct {
	m      *Model
	step   float64
	temps  []float64
	fill   func(power []float64) error
	record func(t float64, temp []float64)
	wrap   func(error) error
	err    error
}

// replay runs jobs on the stepping core and returns per-job errors, indexed
// like jobs. Jobs are dealt round-robin across workers (workers ≤ 0 =
// GOMAXPROCS; 1 runs on the calling goroutine); each worker groups its
// chunk by (model, step) — first-seen order, jobs in index order — and
// hands every group to its model's Solver.Replay. The deal and grouping
// are deterministic, and batching never changes per-column arithmetic, so
// results do not depend on the worker count.
func replay(jobs []replayJob, workers int) []error {
	errs := make([]error, len(jobs))
	idx := make([]int, 0, len(jobs))
	for j := range jobs {
		if errs[j] = jobs[j].err; errs[j] == nil {
			idx = append(idx, j)
		}
	}
	chunk := func(c []int) { runGroups(jobs, c, errs) }
	if workers == 1 {
		chunk(idx)
	} else {
		pool.RunChunked(idx, workers, chunk)
	}
	return errs
}

// runGroups groups one worker's jobs and runs each group. Groups are
// found by linear search rather than a map so that a NaN step, which
// never equals itself, forms its own group and is rejected by Replay
// instead of vanishing.
func runGroups(jobs []replayJob, idx []int, errs []error) {
	type group struct {
		m    *Model
		step float64
		idx  []int
	}
	var groups []group
	for _, j := range idx {
		g := slices.IndexFunc(groups, func(g group) bool { return g.m == jobs[j].m && g.step == jobs[j].step })
		if g < 0 {
			g = len(groups)
			groups = append(groups, group{m: jobs[j].m, step: jobs[j].step})
		}
		groups[g].idx = append(groups[g].idx, j)
	}
	for _, g := range groups {
		rjobs := make([]rcnet.Job, len(g.idx))
		for i, j := range g.idx {
			rjobs[i] = rcnet.Job{Temp: jobs[j].temps, Power: jobs[j].fill, Record: jobs[j].record}
		}
		for i, err := range g.m.solver.Replay(g.step, rjobs) {
			j := g.idx[i]
			if err != nil && jobs[j].wrap != nil {
				err = jobs[j].wrap(err)
			}
			errs[j] = err
		}
	}
}

// replayPoints runs jobs with a point recorder each and returns every
// successful job's sampled block temperatures (°C) beside the per-job
// errors; a failed job's points are nil.
func replayPoints(jobs []replayJob, workers int) ([][]TracePoint, []error) {
	recs := make([]recorder, len(jobs))
	for j := range jobs {
		recs[j].m = jobs[j].m
		jobs[j].record = recs[j].record
	}
	errs := replay(jobs, workers)
	pts := make([][]TracePoint, len(jobs))
	for j, err := range errs {
		if err == nil {
			pts[j] = recs[j].pts
		}
	}
	return pts, errs
}

// recorder collects a replay's block temperatures (°C) as TracePoints.
type recorder struct {
	m   *Model
	pts []TracePoint
}

func (r *recorder) record(t float64, temp []float64) {
	bc := make([]float64, len(r.m.blockNode))
	r.m.BlocksCInto(temp, bc)
	r.pts = append(r.pts, TracePoint{Time: t, BlockC: bc})
}

// DominantTimeConstant returns the network's slowest thermal time constant
// in seconds (the long-term warmup constant of §4.1.1).
func (m *Model) DominantTimeConstant() float64 { return m.solver.DominantTimeConstant() }

// SolverStats snapshots the model's solver counters (factorizations,
// factor reuses, steps, cumulative step-solve time) aggregated over every
// session of the model.
func (m *Model) SolverStats() rcnet.SolverStats { return m.solver.Stats() }

// SecondaryHeatFraction returns the fraction of total dissipated power that
// leaves through the secondary path (PCB side) at the given steady state.
// Returns 0 when the secondary path is disabled.
func (m *Model) SecondaryHeatFraction(power []float64, r *Result) float64 {
	flows := m.solver.HeatFlowToAmbient(r.Temps)
	var total, secondary float64
	for i, q := range flows {
		total += q
		name := m.net.Name(i)
		if name == "pcb" || name == "oil:pcb" {
			secondary += q
		}
	}
	if total == 0 {
		return 0
	}
	return secondary / total
}

// NodeTempK returns the temperature of an arbitrary named node (e.g. "sink",
// "pcb", "oil:IntReg") from a result, or NaN if absent.
func (r *Result) NodeTempK(name string) float64 {
	i := r.model.net.Index(name)
	if i < 0 {
		return math.NaN()
	}
	return r.Temps[i]
}
