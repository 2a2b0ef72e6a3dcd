package rcnet

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// Tests for the stepping core: bit-identical parity between width-k and
// width-1 steps on every backend, lockstep replay parity and isolation, the
// batch-width statistics, and the zero-allocation gate on the batched hot
// path.

// TestBatchSessionMatchesSessions: K states stepped through one BatchSession
// must be bit-identical to the same K states stepped through K independent
// width-1 Sessions, on the dense, supernodal-Cholesky, CG and reduced
// backends, through a dt switch.
func TestBatchSessionMatchesSessions(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := gridNetwork(rng, 6, 6)
	const kk = 5
	for _, hint := range []SolverHint{HintDense, HintCholesky, HintCG, HintReduced} {
		t.Run(hint.String(), func(t *testing.T) {
			s, err := net.CompileHint(hint)
			if err != nil {
				t.Fatal(err)
			}
			powers := make([][]float64, kk)
			seqTemps := make([][]float64, kk)
			batTemps := make([][]float64, kk)
			for k := 0; k < kk; k++ {
				powers[k] = randomPower(rng, net.N())
				seqTemps[k] = s.AmbientVector()
				batTemps[k] = s.AmbientVector()
			}
			bs := s.NewBatchSession(kk)
			errs := make([]error, kk)
			for step, dt := range []float64{1e-3, 1e-3, 2e-3, 1e-3} {
				for k := 0; k < kk; k++ {
					se := s.NewSession() // fresh session: state lives in temps
					if err := se.StepBE(seqTemps[k], powers[k], dt); err != nil {
						t.Fatal(err)
					}
				}
				if err := bs.StepBE(batTemps, powers, dt, errs); err != nil {
					t.Fatal(err)
				}
				for k := 0; k < kk; k++ {
					if errs[k] != nil {
						t.Fatalf("step %d slot %d: %v", step, k, errs[k])
					}
					for i := range batTemps[k] {
						if batTemps[k][i] != seqTemps[k][i] {
							t.Fatalf("step %d slot %d node %d: batch %v vs sequential %v",
								step, k, i, batTemps[k][i], seqTemps[k][i])
						}
					}
				}
			}
		})
	}
}

// TestBatchSessionSkipsNilSlots: nil temperature slots are skipped and the
// rest advance exactly as without them.
func TestBatchSessionSkipsNilSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := gridNetwork(rng, 5, 5)
	s, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	p := randomPower(rng, net.N())
	ref := s.AmbientVector()
	se := s.NewSession()
	if err := se.StepBE(ref, p, 1e-3); err != nil {
		t.Fatal(err)
	}
	bs := s.NewBatchSession(3)
	live := s.AmbientVector()
	temps := [][]float64{nil, live, nil}
	powers := [][]float64{nil, p, nil}
	errs := make([]error, 3)
	if err := bs.StepBE(temps, powers, 1e-3, errs); err != nil {
		t.Fatal(err)
	}
	for i := range live {
		if live[i] != ref[i] {
			t.Fatalf("node %d: %v vs %v", i, live[i], ref[i])
		}
	}
}

// sample is one recorded replay state.
type sample struct {
	Time float64
	Temp []float64
}

// traceJob is a schedule-driven replay for these tests: an initial state, a
// power schedule and the replay window.
type traceJob struct {
	Temp        []float64
	Schedule    func(t float64, power []float64)
	Duration    float64
	SampleEvery float64
}

// replayTraces runs jobs through Replay, one call per window in first-seen
// order, and returns every job's recorded states (nil where it failed).
func replayTraces(s *Solver, jobs []traceJob) ([][]sample, []error) {
	out := make([][]sample, len(jobs))
	errs := make([]error, len(jobs))
	var order []Window
	groups := make(map[Window][]int)
	for j, job := range jobs {
		w := Window{Duration: job.Duration, Step: job.SampleEvery}
		if _, ok := groups[w]; !ok {
			order = append(order, w)
		}
		groups[w] = append(groups[w], j)
	}
	for _, w := range order {
		g := groups[w]
		rjobs := make([]Job, len(g))
		for i, j := range g {
			j := j
			var power func(float64, []float64) error
			if sched := jobs[j].Schedule; sched != nil {
				power = func(t float64, p []float64) error { sched(t, p); return nil }
			}
			rjobs[i] = Job{
				Temp:  jobs[j].Temp,
				Power: power,
				Record: func(t float64, temp []float64) {
					out[j] = append(out[j], sample{Time: t, Temp: append([]float64(nil), temp...)})
				},
			}
		}
		for i, err := range s.Replay(w, rjobs) {
			if errs[g[i]] = err; err != nil {
				out[g[i]] = nil
			}
		}
	}
	return out, errs
}

// replayTrace replays one schedule and returns its recorded states.
func replayTrace(s *Solver, temp []float64, schedule func(t float64, power []float64), duration, sampleEvery float64) ([]sample, error) {
	out, errs := replayTraces(s, []traceJob{{temp, schedule, duration, sampleEvery}})
	return out[0], errs[0]
}

// TestTransientBatchLockstepParity: jobs replayed in lockstep groups must
// record bit-identical samples to each job replayed alone (a width-1
// group), with mixed replay windows in one batch.
func TestTransientBatchLockstepParity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := gridNetwork(rng, 6, 5)
	s, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 11
	powers := make([][]float64, jobs)
	for j := range powers {
		powers[j] = randomPower(rng, net.N())
	}
	windows := []struct{ dur, se float64 }{{0.02, 1e-3}, {0.01, 5e-4}}
	mk := func() []traceJob {
		out := make([]traceJob, jobs)
		for j := range out {
			w := windows[j%len(windows)]
			p := powers[j]
			out[j] = traceJob{
				Temp:        s.AmbientVector(),
				Schedule:    func(_ float64, dst []float64) { copy(dst, p) },
				Duration:    w.dur,
				SampleEvery: w.se,
			}
		}
		return out
	}
	ref := make([][]sample, jobs)
	for j, job := range mk() {
		samples, err := replayTrace(s, job.Temp, job.Schedule, job.Duration, job.SampleEvery)
		if err != nil {
			t.Fatal(err)
		}
		ref[j] = samples
	}
	got, errs := replayTraces(s, mk())
	for j := range ref {
		if errs[j] != nil {
			t.Fatalf("job %d: %v", j, errs[j])
		}
		if len(got[j]) != len(ref[j]) {
			t.Fatalf("job %d: %d samples vs %d", j, len(got[j]), len(ref[j]))
		}
		for i := range ref[j] {
			if got[j][i].Time != ref[j][i].Time {
				t.Fatalf("job %d sample %d: time %v vs %v", j, i, got[j][i].Time, ref[j][i].Time)
			}
			for nn := range ref[j][i].Temp {
				if got[j][i].Temp[nn] != ref[j][i].Temp[nn] {
					t.Fatalf("job %d sample %d node %d: %v vs %v",
						j, i, nn, got[j][i].Temp[nn], ref[j][i].Temp[nn])
				}
			}
		}
	}
}

// TestTransientBatchPanicIsolation: a schedule that panics mid-replay fails
// only its own job even when lockstepped with healthy jobs in one group.
func TestTransientBatchPanicIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := gridNetwork(rng, 4, 4)
	s, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	p := randomPower(rng, net.N())
	jobs := []traceJob{
		{Temp: s.AmbientVector(), Schedule: func(_ float64, dst []float64) { copy(dst, p) }, Duration: 0.01, SampleEvery: 1e-3},
		{Temp: s.AmbientVector(), Schedule: func(tm float64, dst []float64) {
			if tm > 4e-3 {
				panic("boom")
			}
			copy(dst, p)
		}, Duration: 0.01, SampleEvery: 1e-3},
		{Temp: s.AmbientVector(), Schedule: func(_ float64, dst []float64) { copy(dst, p) }, Duration: 0.01, SampleEvery: 1e-3},
	}
	results, errs := replayTraces(s, jobs)
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "panicked") {
		t.Fatalf("expected job 1 panic error, got %v", errs[1])
	}
	if results[1] != nil {
		t.Fatal("panicked job kept results")
	}
	for _, j := range []int{0, 2} {
		if errs[j] != nil || len(results[j]) != 11 {
			t.Fatalf("healthy job %d: %d samples (err %v), want 11", j, len(results[j]), errs[j])
		}
	}
}

// TestBatchWidthHistogram: batched steps must land in the width histogram
// bucket matching the group width.
func TestBatchWidthHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	net := gridNetwork(rng, 5, 5)
	s, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	const jobs, steps = 6, 10
	tj := make([]traceJob, jobs)
	for j := range tj {
		p := randomPower(rng, net.N())
		tj[j] = traceJob{
			Temp:        s.AmbientVector(),
			Schedule:    func(_ float64, dst []float64) { copy(dst, p) },
			Duration:    float64(steps) * 1e-3,
			SampleEvery: 1e-3,
		}
	}
	_, errs := replayTraces(s, tj)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.BatchWidths["5-8"] != steps {
		t.Fatalf("batch width histogram: %v, want %d in bucket 5-8", st.BatchWidths, steps)
	}
	if st.DirectSteps != jobs*steps {
		t.Fatalf("direct steps: %d, want %d", st.DirectSteps, jobs*steps)
	}
	if st.Supernodes <= 0 || st.MaxPanelRows <= 0 {
		t.Fatalf("supernodal factor stats missing: %+v", st)
	}
	// A width-6 group dispatches greedily onto one 4-wide kernel plus two
	// singles per step; the per-workspace counters must surface here.
	if st.KernelSolves["4"] != steps || st.KernelSolves["1"] != 2*steps {
		t.Fatalf("kernel solve counters: %v, want %d×\"4\" and %d×\"1\"", st.KernelSolves, steps, 2*steps)
	}
}

// TestBatchStepAllocationFree gates the batched stepping hot path at zero
// allocations per step on the direct backends (the satellite extension of
// TestStepBEAllocationFree).
func TestBatchStepAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	net := gridNetwork(rng, 6, 6)
	for _, hint := range []SolverHint{HintDense, HintCholesky} {
		t.Run(hint.String(), func(t *testing.T) {
			s, err := net.CompileHint(hint)
			if err != nil {
				t.Fatal(err)
			}
			const kk = 4
			temps := make([][]float64, kk)
			powers := make([][]float64, kk)
			for k := 0; k < kk; k++ {
				temps[k] = s.AmbientVector()
				powers[k] = randomPower(rng, net.N())
			}
			bs := s.NewBatchSession(kk)
			errs := make([]error, kk)
			step := func() {
				if err := bs.StepBE(temps, powers, 1e-3, errs); err != nil {
					t.Fatal(err)
				}
				for k, e := range errs {
					if e != nil {
						t.Fatalf("slot %d: %v", k, e)
					}
				}
			}
			step() // warm: factor + scratch growth
			if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
				t.Fatalf("%v batched StepBE allocates %v times per step, want 0", hint, allocs)
			}
		})
	}
}

// TestReplayLockstepWindowMismatch: Replay rejects a job it cannot step
// (wrong state length, no power fill) on its own while the rest of the
// group runs, and an invalid window rejects every job.
func TestReplayLockstepWindowMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := gridNetwork(rng, 4, 4)
	s, err := net.Compile()
	if err != nil {
		t.Fatal(err)
	}
	p := randomPower(rng, net.N())
	fill := func(_ float64, dst []float64) error { copy(dst, p); return nil }
	steps := 0
	jobs := []Job{
		{Temp: s.AmbientVector(), Power: fill, Record: func(float64, []float64) { steps++ }},
		{Temp: make([]float64, 1), Power: fill},
		{Temp: s.AmbientVector()},
	}
	errs := s.Replay(Window{Duration: 0.01, Step: 1e-3}, jobs)
	if errs[0] != nil || steps != 11 {
		t.Fatalf("anchor job: %d records, err %v", steps, errs[0])
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "temperature vector length") {
		t.Fatalf("short-state job error: %v", errs[1])
	}
	if errs[2] == nil || !strings.Contains(errs[2].Error(), "no power fill") {
		t.Fatalf("fill-less job error: %v", errs[2])
	}
	for _, w := range []Window{{Duration: 0, Step: 1e-3}, {Duration: 0.01, Step: 0}, {Duration: 0.01, Step: math.NaN()}} {
		for j, err := range s.Replay(w, jobs[:1]) {
			if err == nil {
				t.Fatalf("window %+v: job %d accepted", w, j)
			}
		}
	}
}
