package rcnet

import (
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/linalg"
)

// This file holds the stepping core. BatchSession.StepBE is the only
// backward-Euler step in the package: it advances K independent temperature
// states with a single factor traversal (linalg.Operator.SolveBatch), and a
// single state is the width-1 case (Session, Solver.StepBE). Replay is the
// only replay loop: it drives same-window jobs through shared steps, so
// hotspot sweeps and streamed replays stop paying the factor's full memory
// traffic once per job per step. The scenario grid, whose power depends on
// each step's temperatures, calls StepBE directly.

// MaxBatchWidth caps how many right-hand sides one lockstep group solves per
// factor traversal. The packed block costs n·K floats of workspace; with the
// PR 6 register-blocked solve kernels a 64-wide group decomposes into four
// 16-wide kernel passes, amortizing panel loads to noise while a 2048-node
// model's block still fits in L2. Groups wider than this split — per-job
// results are unaffected (batching never changes per-column arithmetic).
const MaxBatchWidth = 64

// BatchSession is a K-wide backward-Euler stepping context over one
// compiled Solver: one solve workspace, one cached (C/dt + A) operator, and
// K right-hand-side slots stepped together. Like Session, a BatchSession
// must not be used from more than one goroutine at a time; any number of
// BatchSessions may run concurrently against the same Solver.
type BatchSession struct {
	s      *Solver
	ws     linalg.Workspace
	rhs    [][]float64 // per-slot right-hand sides
	sol    [][]float64 // per-slot iterative-solve scratch
	bview  [][]float64 // compacted active-slot views (reused)
	xview  [][]float64
	capDt  []float64
	step   float64
	op     linalg.Operator
	iter   bool
	nsteps uint64 // batched solves taken; drives the 1-in-8 latency sampling

	// Reduced-path state: red is the current operator when it is a reduced
	// projection (nil otherwise), epoch the solver epoch it was fetched at,
	// res the residual-check scratch. All unused on full-backend solvers.
	red   *linalg.ReducedOperator
	epoch uint32
	res   []float64

	// one* are the width-1 argument slots step1 reuses, so single-state
	// stepping allocates nothing.
	oneT, oneP [1][]float64
	oneErr     [1]error
}

// NewBatchSession creates a K-wide stepping context. Safe to call
// concurrently.
func (s *Solver) NewBatchSession(width int) *BatchSession {
	if width < 1 {
		width = 1
	}
	n := s.net.N()
	bs := &BatchSession{
		s:     s,
		rhs:   make([][]float64, width),
		sol:   make([][]float64, width),
		bview: make([][]float64, 0, width),
		xview: make([][]float64, 0, width),
		capDt: make([]float64, n),
	}
	for k := range bs.rhs {
		bs.rhs[k] = make([]float64, n)
		bs.sol[k] = make([]float64, n)
	}
	return bs
}

// Width returns the number of slots.
func (bs *BatchSession) Width() int { return len(bs.rhs) }

// step1 is StepBE for one state: a slot-0 step whose per-slot error is
// returned. On error, temp is left unchanged.
func (bs *BatchSession) step1(temp, power []float64, dt float64) error {
	bs.oneT[0], bs.oneP[0], bs.oneErr[0] = temp, power, nil
	err := bs.StepBE(bs.oneT[:], bs.oneP[:], dt, bs.oneErr[:])
	if err == nil {
		err = bs.oneErr[0]
	}
	bs.oneT[0], bs.oneP[0], bs.oneErr[0] = nil, nil, nil
	return err
}

// StepBE advances up to Width temperature states (in place) by one
// backward-Euler step of size dt under per-slot constant power. Slots with a
// nil temperature vector are skipped — that is how lockstep callers drop
// jobs that already failed or finished. Per-slot solve failures (possible
// only on the iterative backend) land in errs; the returned error reports
// batch-level failures (bad dt, slot shape, operator factorization) that
// apply to every slot. Per-slot results are bit-identical at any width:
// the batched solve never changes per-column arithmetic.
func (bs *BatchSession) StepBE(temps, powers [][]float64, dt float64, errs []error) error {
	if !(dt > 0) || math.IsInf(dt, 0) {
		// NaN must be rejected here, not just nonsense-tolerated: it would
		// both poison the solver's (dt → factor) cache (NaN map keys never
		// match a lookup) and factor to silent NaN temperatures.
		return fmt.Errorf("rcnet: invalid step %g", dt)
	}
	kk := len(temps)
	if len(powers) != kk || len(errs) != kk || kk > len(bs.rhs) {
		return fmt.Errorf("rcnet: batch step shape: %d temps, %d powers, %d errs, width %d",
			kk, len(powers), len(errs), len(bs.rhs))
	}
	s := bs.s
	n := s.net.N()
	for k := 0; k < kk; k++ {
		if temps[k] == nil {
			continue
		}
		if len(temps[k]) != n || len(powers[k]) != n {
			return fmt.Errorf("rcnet: batch slot %d: temperature/power length %d/%d, want %d",
				k, len(temps[k]), len(powers[k]), n)
		}
	}
	if bs.op == nil || bs.step != dt || (s.reduced != nil && bs.epoch != s.epoch.Load()) {
		op, err := s.beOperatorCached(dt)
		if err != nil {
			return err
		}
		bs.op, bs.step, bs.iter = op, dt, op.Iterative()
		for i, c := range s.net.cap {
			bs.capDt[i] = c / dt
		}
		bs.red, _ = op.(*linalg.ReducedOperator)
		if s.reduced != nil {
			bs.epoch = s.epoch.Load()
			if bs.red != nil && bs.res == nil {
				bs.res = make([]float64, n)
			}
		}
	}
	ambRHS, capDt := s.ambRHS, bs.capDt
	width := 0
	for k := 0; k < kk; k++ {
		if temps[k] == nil {
			continue
		}
		rhs := bs.rhs[k]
		temp, power := temps[k], powers[k]
		for i := range rhs {
			rhs[i] = power[i] + ambRHS[i] + capDt[i]*temp[i]
		}
		width++
	}
	if width == 0 {
		return nil
	}
	st := &s.stats
	st.recordBatchWidth(width)
	// Solve latency is sampled one step in eight: two clock reads per step
	// would cost ~10% of a small model's triangular solve.
	sample := bs.nsteps&7 == 0
	bs.nsteps++
	var start time.Time
	if sample {
		start = time.Now()
	}
	if bs.iter {
		// Iterative solves run per column (each has its own Krylov
		// sequence), land in slot scratch and update the state only on
		// success, so a stalled column fails its own slot.
		for k := 0; k < kk; k++ {
			if temps[k] == nil {
				continue
			}
			if _, err := bs.op.Solve(bs.rhs[k], temps[k], bs.sol[k], &bs.ws); err != nil {
				errs[k] = fmt.Errorf("rcnet: backward Euler solve: %w", err)
				continue
			}
			st.cgSteps.Add(1)
			st.cgIterations.Add(int64(bs.ws.LastIterations))
			copy(temps[k], bs.sol[k])
		}
		if sample {
			st.stepSolveNanos.Add(8 * int64(time.Since(start)))
		}
		return nil
	}
	if bs.red != nil {
		// Reduced path: per-column solves into slot scratch (there is no
		// factor traversal to amortize), with a sampled residual check on
		// the first live slot before any caller state changes.
		for k := 0; k < kk; k++ {
			if temps[k] == nil {
				continue
			}
			if _, err := bs.op.Solve(bs.rhs[k], nil, bs.sol[k], &bs.ws); err != nil {
				return fmt.Errorf("rcnet: backward Euler batch solve: %w", err)
			}
		}
		if sample {
			st.stepSolveNanos.Add(8 * int64(time.Since(start)))
			for k := 0; k < kk; k++ {
				if temps[k] == nil {
					continue
				}
				if !s.checkReducedResidual(bs.red, bs.rhs[k], bs.sol[k], bs.res) {
					// Gate tripped: redo the whole batch step through the
					// full backend (no temp has been written yet).
					bs.op = nil
					return bs.StepBE(temps, powers, dt, errs)
				}
				break
			}
		}
		for k := 0; k < kk; k++ {
			if temps[k] != nil {
				copy(temps[k], bs.sol[k])
			}
		}
		st.directSteps.Add(int64(width))
		st.reducedSteps.Add(int64(width))
		return nil
	}
	// Direct path: one factor traversal for every active slot. Direct
	// solves cannot fail after factorization and write the state only in
	// their final scatter, so they target the temperature vectors in place.
	bs.bview = bs.bview[:0]
	bs.xview = bs.xview[:0]
	for k := 0; k < kk; k++ {
		if temps[k] == nil {
			continue
		}
		bs.bview = append(bs.bview, bs.rhs[k])
		bs.xview = append(bs.xview, temps[k])
	}
	if _, err := bs.op.SolveBatch(bs.bview, nil, bs.xview, &bs.ws); err != nil {
		return fmt.Errorf("rcnet: backward Euler batch solve: %w", err)
	}
	if sample {
		st.stepSolveNanos.Add(8 * int64(time.Since(start)))
	}
	st.directSteps.Add(int64(width))
	st.absorbKernels(&bs.ws)
	return nil
}

// Window is the step sequence a lockstep group shares: steps of Step
// seconds from t = 0, the last one shortened to land on Duration. An
// infinite Duration leaves the sequence open; it then runs until every
// job's power fill reports io.EOF (how streamed rows end).
type Window struct {
	Duration float64
	Step     float64
}

// Job is one state replayed by Replay.
type Job struct {
	// Temp is the initial state, advanced in place.
	Temp []float64
	// Power fills the node power for the step that starts at time t.
	// io.EOF ends the job with everything recorded so far standing; any
	// other error fails it.
	Power func(t float64, power []float64) error
	// Record, when set, observes the state at t = 0 and after every step.
	// temp is the live state vector: copy what must outlive the call.
	Record func(t float64, temp []float64)
}

// Replay advances same-window jobs in lockstep on the calling goroutine:
// each step fills every live job's power, then solves all their right-hand
// sides in one factor traversal (groups wider than MaxBatchWidth split).
// Errors are indexed like jobs. Malformed jobs are rejected before any
// stepping; a job whose callback fails or panics, or whose solve stalls,
// drops out while the rest keep stepping. Per-job results are bit-identical
// to replaying each job alone.
func (s *Solver) Replay(w Window, jobs []Job) []error {
	errs := make([]error, len(jobs))
	var werr error
	switch {
	case !(w.Step > 0) || math.IsInf(w.Step, 0):
		werr = fmt.Errorf("rcnet: replay window: invalid step %g", w.Step)
	case !(w.Duration > 0):
		werr = fmt.Errorf("rcnet: empty replay window: non-positive duration %g", w.Duration)
	}
	live := make([]int, 0, len(jobs))
	for j, job := range jobs {
		switch {
		case werr != nil:
			errs[j] = werr
		case job.Power == nil:
			errs[j] = errors.New("rcnet: replay job has no power fill")
		case len(job.Temp) != s.net.N():
			errs[j] = fmt.Errorf("rcnet: temperature vector length %d, want %d", len(job.Temp), s.net.N())
		default:
			live = append(live, j)
		}
	}
	for off := 0; off < len(live); off += MaxBatchWidth {
		s.lockstep(w, jobs, live[off:min(off+MaxBatchWidth, len(live))], errs)
	}
	return errs
}

// lockstep advances one ≤MaxBatchWidth group of validated jobs through the
// window.
func (s *Solver) lockstep(w Window, jobs []Job, idx []int, errs []error) {
	kk := len(idx)
	bs := s.NewBatchSession(kk)
	temps := make([][]float64, kk)
	powers := make([][]float64, kk)
	serrs := make([]error, kk)
	for k, j := range idx {
		temps[k] = jobs[j].Temp
		powers[k] = make([]float64, s.net.N())
	}
	fail := func(k int, err error) {
		errs[idx[k]] = err
		temps[k] = nil
	}
	// advance records job k's state at t and, unless the window is over,
	// fills its power for the step from t. A callback that fails or panics
	// fails its own job only; io.EOF finishes the job.
	advance := func(k int, t float64, last bool) {
		defer func() {
			if r := recover(); r != nil {
				fail(k, fmt.Errorf("job panicked: %v", r))
			}
		}()
		job := &jobs[idx[k]]
		if job.Record != nil {
			job.Record(t, temps[k])
		}
		if last {
			return
		}
		if err := job.Power(t, powers[k]); err == io.EOF {
			temps[k] = nil
		} else if err != nil {
			fail(k, err)
		}
	}
	end := w.Duration
	if !math.IsInf(end, 1) {
		end -= 1e-12 * end
	}
	t := 0.0
	for {
		last := !(t < end)
		live := 0
		for k := range temps {
			if temps[k] == nil {
				continue
			}
			advance(k, t, last)
			if temps[k] != nil {
				live++
			}
		}
		if last || live == 0 {
			return
		}
		dt := w.Step
		if dt > w.Duration-t {
			dt = w.Duration - t
		}
		if err := bs.StepBE(temps, powers, dt, serrs); err != nil {
			// Batch-level failure (operator factorization): every live job
			// fails the same way a lone step would have.
			for k := range temps {
				if temps[k] != nil {
					fail(k, err)
				}
			}
			return
		}
		t += dt
		for k, err := range serrs {
			if err != nil {
				fail(k, err)
				serrs[k] = nil
			}
		}
	}
}
