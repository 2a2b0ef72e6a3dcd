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
// boundary-layer capacitance sits next to the silicon mass).
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

// RunTrace drives the model with a power schedule: schedule fills the
// per-block power slice (floorplan order, W) for the interval starting at
// time t. The state is sampled every sampleEvery seconds. The replay runs
// on the calling goroutine with all mutable state per call, so several
// traces may run concurrently on one Model (each with its own temps and
// schedule).
func (m *Model) RunTrace(temps []float64, schedule func(t float64, blockPower []float64), duration, sampleEvery float64) ([]TracePoint, error) {
	pts, errs := replay([]replayJob{m.scheduleJob(TraceJob{temps, schedule, duration, sampleEvery})}, 1)
	return pts[0], errs[0]
}

// TraceJob describes one independent trace replay: an initial temperature
// state (advanced in place), a per-block power schedule, and the replay
// window.
type TraceJob struct {
	Temps       []float64
	Schedule    func(t float64, blockPower []float64)
	Duration    float64
	SampleEvery float64
}

// scheduleJob adapts a per-block schedule to the stepping core: a closed
// window, and a power fill that expands the schedule's block powers onto
// block nodes through a buffer the job owns.
func (m *Model) scheduleJob(tj TraceJob) replayJob {
	job := replayJob{m: m, w: rcnet.Window{Duration: tj.Duration, Step: tj.SampleEvery}, temps: tj.Temps}
	if math.IsInf(tj.Duration, 1) {
		// An infinite window is open-ended, and a schedule never ends it.
		job.err = errors.New("hotspot: unbounded trace duration")
	}
	if tj.Schedule != nil {
		blockPower := make([]float64, m.cfg.Floorplan.N())
		job.fill = func(t float64, power []float64) error {
			tj.Schedule(t, blockPower)
			clear(power)
			for bi, w := range blockPower {
				power[m.blockNode[bi]] = w
			}
			return nil
		}
	}
	return job
}

// SweepJob pairs a model with one trace replay, for sweeps that span several
// model configurations (packages, flow directions, ablations).
type SweepJob struct {
	Model *Model
	TraceJob
}

// RunSweep replays scenario jobs across a worker pool, where each job may
// target a different Model (workers ≤ 0 uses GOMAXPROCS). Same-model
// same-window scenarios solve up to rcnet.MaxBatchWidth right-hand sides per
// factor traversal; per-job results are bit-identical at any worker count
// (batching never changes per-column arithmetic). Results are indexed like
// jobs; the first error (by job order) is returned after all jobs finish.
//
// Jobs are validated before any stepping happens: a job built from an empty
// or truncated power trace (non-positive duration or sample interval, nil
// schedule, wrong state length) fails with a descriptive error instead of
// panicking inside a worker, and a schedule that panics mid-replay fails
// only its own job.
func RunSweep(jobs []SweepJob, workers int) ([][]TracePoint, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	rj := make([]replayJob, len(jobs))
	for j, job := range jobs {
		if job.Model == nil {
			rj[j] = replayJob{err: errors.New("nil model")}
			continue
		}
		rj[j] = job.Model.scheduleJob(job.TraceJob)
	}
	results, errs := replay(rj, workers)
	for j, err := range errs {
		if err != nil {
			return results, fmt.Errorf("hotspot: sweep job %d: %w", j, err)
		}
	}
	return results, nil
}

// replayJob is one replay on the stepping core, built by an adapter
// (rowJob, scheduleJob): the model and window it groups under, its initial
// state, and its power fill. err fails the job before grouping; wrap, when
// set, adds the adapter's context (the row it reached) to a failure.
type replayJob struct {
	m     *Model
	w     rcnet.Window
	temps []float64
	fill  func(t float64, power []float64) error
	wrap  func(error) error
	err   error
}

// replay runs jobs on the stepping core and returns per-job points and
// errors, indexed like jobs. Jobs are dealt round-robin across workers
// (workers ≤ 0 = GOMAXPROCS; 1 runs on the calling goroutine); each worker
// groups its chunk by (model, window) — first-seen order, jobs in index
// order — and hands every group to its model's Solver.Replay. The deal
// and grouping are deterministic, and batching never changes per-column
// arithmetic, so results do not depend on the worker count.
func replay(jobs []replayJob, workers int) ([][]TracePoint, []error) {
	pts := make([][]TracePoint, len(jobs))
	errs := make([]error, len(jobs))
	idx := make([]int, 0, len(jobs))
	for j := range jobs {
		if errs[j] = jobs[j].err; errs[j] == nil {
			idx = append(idx, j)
		}
	}
	chunk := func(c []int) { runGroups(jobs, c, pts, errs) }
	if workers == 1 {
		chunk(idx)
	} else {
		pool.RunChunked(idx, workers, chunk)
	}
	return pts, errs
}

// runGroups groups one worker's jobs and runs each group. Groups are
// found by linear search rather than a map so that a NaN window, which
// never equals itself, forms its own group and is rejected by Replay
// instead of vanishing.
func runGroups(jobs []replayJob, idx []int, pts [][]TracePoint, errs []error) {
	type group struct {
		m   *Model
		w   rcnet.Window
		idx []int
	}
	var groups []group
	for _, j := range idx {
		g := slices.IndexFunc(groups, func(g group) bool { return g.m == jobs[j].m && g.w == jobs[j].w })
		if g < 0 {
			g = len(groups)
			groups = append(groups, group{m: jobs[j].m, w: jobs[j].w})
		}
		groups[g].idx = append(groups[g].idx, j)
	}
	for _, g := range groups {
		recs := make([]recorder, len(g.idx))
		rjobs := make([]rcnet.Job, len(g.idx))
		for i, j := range g.idx {
			recs[i].m = g.m
			rjobs[i] = rcnet.Job{Temp: jobs[j].temps, Power: jobs[j].fill, Record: recs[i].record}
		}
		for i, err := range g.m.solver.Replay(g.w, rjobs) {
			j := g.idx[i]
			if err == nil {
				pts[j] = recs[i].pts
				continue
			}
			if jobs[j].wrap != nil {
				err = jobs[j].wrap(err)
			}
			errs[j] = err
		}
	}
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

// SolverBackend names the linear-solver backend the model compiled onto
// ("dense", "cholesky" or "sparse").
func (m *Model) SolverBackend() string { return m.solver.Backend() }

// SolverStats snapshots the model's per-path solver counters
// (factorizations, factor reuses, direct vs CG steps, cumulative step-solve
// time) aggregated over every session of the model.
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
