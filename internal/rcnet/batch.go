package rcnet

import (
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/linalg"
)

// This file holds the stepping core. batchSession.StepBE is the only
// backward-Euler step in the package: it advances K independent temperature
// states with a single factor traversal (linalg.CholeskyOperator.SolveBatch),
// and a single state is the width-1 case (Solver.StepBE). Replay is the only
// replay loop: it drives same-step jobs through shared steps, so sweeps,
// streamed replays and closed-loop co-simulations stop paying the factor's
// full memory traffic once per job per step. A closed loop is a job whose
// power fill reads its own live state.

// MaxBatchWidth caps how many right-hand sides one lockstep group solves per
// step. The group's right-hand sides cost n·K floats of workspace; with the
// register-blocked solve kernels a 64-wide group decomposes into eight 8-wide
// kernel passes, amortizing panel loads to noise. Groups wider than this
// split — per-job results are unaffected (batching never changes per-column
// arithmetic).
const MaxBatchWidth = 64

// batchSession is a K-wide backward-Euler stepping context over one
// compiled Solver: one solve workspace, one cached (C/dt + A) factor, and
// K right-hand-side slots stepped together. A batchSession must not be used
// from more than one goroutine at a time; any number of them may run
// concurrently against the same Solver.
type batchSession struct {
	s      *Solver
	ws     linalg.Workspace
	rhs    [][]float64 // per-slot right-hand sides
	bview  [][]float64 // compacted active-slot views (reused)
	xview  [][]float64
	capDt  []float64
	step   float64
	op     *linalg.CholeskyOperator
	nsteps uint64 // batched solves taken; drives the 1-in-8 latency sampling

	// one* are the width-1 argument slots step1 reuses, so single-state
	// stepping allocates nothing.
	oneT, oneP [1][]float64
}

// newBatchSession creates a K-wide stepping context. Safe to call
// concurrently.
func (s *Solver) newBatchSession(width int) *batchSession {
	if width < 1 {
		width = 1
	}
	n := s.net.N()
	bs := &batchSession{
		s:     s,
		rhs:   make([][]float64, width),
		bview: make([][]float64, 0, width),
		xview: make([][]float64, 0, width),
		capDt: make([]float64, n),
	}
	for k := range bs.rhs {
		bs.rhs[k] = make([]float64, n)
	}
	return bs
}

// step1 is StepBE for one state in slot 0. On error, temp is left
// unchanged.
func (bs *batchSession) step1(temp, power []float64, dt float64) error {
	bs.oneT[0], bs.oneP[0] = temp, power
	err := bs.StepBE(bs.oneT[:], bs.oneP[:], dt)
	bs.oneT[0], bs.oneP[0] = nil, nil
	return err
}

// StepBE advances up to width temperature states (in place) by one
// backward-Euler step of size dt under per-slot constant power. Slots with a
// nil temperature vector are skipped — that is how lockstep callers drop
// jobs that already failed or finished. The returned error reports a
// failure (bad dt, slot shape, factorization) that applies to every slot;
// a factor solve cannot fail. Per-slot results are bit-identical at any
// width: the batched solve never changes per-column arithmetic.
func (bs *batchSession) StepBE(temps, powers [][]float64, dt float64) error {
	if !(dt > 0) || math.IsInf(dt, 0) {
		// NaN must be rejected here, not just nonsense-tolerated: it would
		// both poison the solver's (dt → factor) cache (NaN map keys never
		// match a lookup) and factor to silent NaN temperatures.
		return fmt.Errorf("rcnet: invalid step %g", dt)
	}
	kk := len(temps)
	if len(powers) != kk || kk > len(bs.rhs) {
		return fmt.Errorf("rcnet: batch step shape: %d temps, %d powers, width %d",
			kk, len(powers), len(bs.rhs))
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
	if bs.op == nil || bs.step != dt {
		op, err := s.beOperatorCached(dt)
		if err != nil {
			return err
		}
		bs.op, bs.step = op, dt
		for i, c := range s.net.cap {
			bs.capDt[i] = c / dt
		}
	}
	ambRHS, capDt := s.ambRHS, bs.capDt
	bs.bview, bs.xview = bs.bview[:0], bs.xview[:0]
	for k := 0; k < kk; k++ {
		if temps[k] == nil {
			continue
		}
		rhs := bs.rhs[k]
		temp, power := temps[k], powers[k]
		for i := range rhs {
			rhs[i] = power[i] + ambRHS[i] + capDt[i]*temp[i]
		}
		bs.bview = append(bs.bview, rhs)
		bs.xview = append(bs.xview, temp)
	}
	width := len(bs.bview)
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
	// One factor traversal for every active slot. The solve writes each
	// state only in its final scatter, so it targets the temperature
	// vectors in place.
	bs.op.SolveBatch(bs.bview, bs.xview, &bs.ws)
	if sample {
		st.stepSolveNanos.Add(8 * int64(time.Since(start)))
	}
	st.directSteps.Add(int64(width))
	st.absorbKernels(&bs.ws)
	return nil
}

// Job is one state replayed by Replay.
type Job struct {
	// Temp is the initial state, advanced in place.
	Temp []float64
	// Power fills the node power for the next step. io.EOF ends the job
	// with everything recorded so far standing; any other error fails it.
	Power func(power []float64) error
	// Record, when set, observes the state at t = 0 and after every step,
	// t being the running sum of the steps taken. temp is the live state
	// vector: copy what must outlive the call.
	Record func(t float64, temp []float64)
}

// Replay advances jobs in lockstep on the calling goroutine, in steps of
// step seconds until each job's power fill reports io.EOF: each step
// fills every live job's power, then solves all their right-hand sides in
// one factor traversal (groups wider than MaxBatchWidth split). Errors
// are indexed like jobs. Malformed jobs are rejected before any stepping;
// a job whose callback fails or panics drops out while the rest keep
// stepping. Per-job results are bit-identical to replaying each job alone.
func (s *Solver) Replay(step float64, jobs []Job) []error {
	errs := make([]error, len(jobs))
	live := make([]int, 0, len(jobs))
	for j, job := range jobs {
		switch {
		case !(step > 0) || math.IsInf(step, 0):
			errs[j] = fmt.Errorf("rcnet: replay: invalid step %g", step)
		case job.Power == nil:
			errs[j] = errors.New("rcnet: replay job has no power fill")
		case len(job.Temp) != s.net.N():
			errs[j] = fmt.Errorf("rcnet: temperature vector length %d, want %d", len(job.Temp), s.net.N())
		default:
			live = append(live, j)
		}
	}
	for off := 0; off < len(live); off += MaxBatchWidth {
		s.lockstep(step, jobs, live[off:min(off+MaxBatchWidth, len(live))], errs)
	}
	return errs
}

// lockstep advances one ≤MaxBatchWidth group of validated jobs until every
// one has ended.
func (s *Solver) lockstep(step float64, jobs []Job, idx []int, errs []error) {
	kk := len(idx)
	bs := s.newBatchSession(kk)
	temps := make([][]float64, kk)
	powers := make([][]float64, kk)
	for k, j := range idx {
		temps[k] = jobs[j].Temp
		powers[k] = make([]float64, s.net.N())
	}
	fail := func(k int, err error) {
		errs[idx[k]] = err
		temps[k] = nil
	}
	// advance records job k's state at t and fills its power for the next
	// step. A callback that fails or panics fails its own job only; io.EOF
	// finishes the job.
	advance := func(k int, t float64) {
		defer func() {
			if r := recover(); r != nil {
				fail(k, fmt.Errorf("job panicked: %v", r))
			}
		}()
		job := &jobs[idx[k]]
		if job.Record != nil {
			job.Record(t, temps[k])
		}
		if err := job.Power(powers[k]); err == io.EOF {
			temps[k] = nil
		} else if err != nil {
			fail(k, err)
		}
	}
	for t := 0.0; ; t += step {
		live := 0
		for k := range temps {
			if temps[k] == nil {
				continue
			}
			advance(k, t)
			if temps[k] != nil {
				live++
			}
		}
		if live == 0 {
			return
		}
		if err := bs.StepBE(temps, powers, step); err != nil {
			// Batch-level failure (factorization): every live job fails the
			// same way a lone step would have.
			for k := range temps {
				if temps[k] != nil {
					fail(k, err)
				}
			}
			return
		}
	}
}
