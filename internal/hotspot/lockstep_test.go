package hotspot

import (
	"io"
	"strings"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/trace"
)

// Parity tests for the lockstep batch paths at the hotspot layer:
// ReplayBatchResults must reproduce sequential Session.ReplayRows bit for
// bit at any worker count, and closed loops stepped K wide through
// RunLoops must match each loop run alone.

func lockstepModels(t *testing.T) (*Model, *Model) {
	t.Helper()
	fp := floorplan.EV6()
	oil, err := New(Config{
		Floorplan: fp,
		Package:   OilSilicon,
		Oil:       OilConfig{Direction: LeftToRight, TargetRconv: 0.3},
		Secondary: SecondaryPathConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	air, err := New(Config{Floorplan: fp, Package: AirSink, Air: AirSinkConfig{RConvec: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	return oil, air
}

func pulse(t *testing.T, block string) *trace.PowerTrace {
	t.Helper()
	tr, err := trace.PulseTrain(floorplan.EV6().Names(), block, 4, 2e-3, 3e-3, 0.5e-3, 2)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestRunSweepLockstepParity: sweeps mixing two models and several
// same-model traces must match per-job sequential Session.ReplayRows
// bitwise at every worker count (same-model jobs lockstep; chunking
// varies with workers).
func TestRunSweepLockstepParity(t *testing.T) {
	oil, air := lockstepModels(t)
	traces := []*trace.PowerTrace{pulse(t, "IntReg"), pulse(t, "FPMap"), pulse(t, "Dcache")}
	var models []*Model
	var srcs []*trace.PowerTrace
	for _, m := range []*Model{oil, air} {
		for _, tr := range traces {
			models = append(models, m)
			srcs = append(srcs, tr)
		}
	}
	ref := make([][]TracePoint, len(models))
	for j, m := range models {
		pts, err := m.NewSession().ReplayRows(m.AmbientState(), srcs[j].Reader())
		if err != nil {
			t.Fatal(err)
		}
		ref[j] = pts
	}
	for _, workers := range []int{1, 2, 5} {
		jobs := make([]ReplayJob, len(models))
		for j, m := range models {
			jobs[j] = ReplayJob{Model: m, Rows: srcs[j].Reader()}
		}
		got, errs := ReplayBatchResults(jobs, workers)
		for j := range ref {
			if errs[j] != nil {
				t.Fatalf("workers=%d job %d: %v", workers, j, errs[j])
			}
			if len(got[j]) != len(ref[j]) {
				t.Fatalf("workers=%d job %d: %d points vs %d", workers, j, len(got[j]), len(ref[j]))
			}
			for i := range ref[j] {
				for b := range ref[j][i].BlockC {
					if got[j][i].BlockC[b] != ref[j][i].BlockC[b] {
						t.Fatalf("workers=%d job %d point %d block %d: %v vs %v",
							workers, j, i, b, got[j][i].BlockC[b], ref[j][i].BlockC[b])
					}
				}
			}
		}
	}
}

// TestRunReplayBatchLockstepParity: streamed lockstep replay through
// ReplayBatchResults — including traces of different lengths in one group,
// which drop out at EOF — must match sequential Session.ReplayRows bitwise.
func TestRunReplayBatchLockstepParity(t *testing.T) {
	oil, air := lockstepModels(t)
	long := pulse(t, "IntReg")
	short := pulse(t, "FPMap")
	shortRows := short.Rows[:len(short.Rows)/2]
	shortTr := &trace.PowerTrace{Names: short.Names, Interval: short.Interval}
	for _, r := range shortRows {
		if err := shortTr.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	models := []*Model{oil, oil, air, oil}
	srcs := []*trace.PowerTrace{long, shortTr, long, long}
	ref := make([][]TracePoint, len(models))
	for j := range models {
		pts, err := models[j].NewSession().ReplayRows(models[j].AmbientState(), srcs[j].Reader())
		if err != nil {
			t.Fatal(err)
		}
		ref[j] = pts
	}
	for _, workers := range []int{1, 2, 4} {
		jobs := make([]ReplayJob, len(models))
		for j := range models {
			jobs[j] = ReplayJob{Model: models[j], Rows: srcs[j].Reader()}
		}
		got, errs := ReplayBatchResults(jobs, workers)
		for j := range ref {
			if errs[j] != nil {
				t.Fatalf("workers=%d job %d: %v", workers, j, errs[j])
			}
			if len(got[j]) != len(ref[j]) {
				t.Fatalf("workers=%d job %d: %d points vs %d", workers, j, len(got[j]), len(ref[j]))
			}
			for i := range ref[j] {
				for b := range ref[j][i].BlockC {
					if got[j][i].BlockC[b] != ref[j][i].BlockC[b] {
						t.Fatalf("workers=%d job %d point %d block %d: %v vs %v",
							workers, j, i, b, got[j][i].BlockC[b], ref[j][i].BlockC[b])
					}
				}
			}
		}
	}
}

// TestBatchSessionStepBlockPowerParity: closed loops stepped in lockstep
// through RunLoops must match each loop run alone (width 1) bit for bit,
// and an invalid block power must fail only its own loop, leaving its state
// at the last good step.
func TestBatchSessionStepBlockPowerParity(t *testing.T) {
	oil, _ := lockstepModels(t)
	nb := oil.Config().Floorplan.N()
	const kk, steps = 3, 5
	// loop k runs steps steps, feeding each block's own temperature back
	// into its power (so a state mixed up between loops would show), and
	// emits an invalid power at step badAt (-1 = never).
	loop := func(k int, temps []float64, steps, badAt int) LoopJob {
		n := 0
		blocksC := make([]float64, nb)
		return LoopJob{Model: oil, Temps: temps, Step: 1e-3, Power: func(bp []float64) error {
			if n == steps {
				return io.EOF
			}
			oil.BlocksCInto(temps, blocksC)
			for b := range bp {
				bp[b] = float64(k+1)*0.3 + 0.01*blocksC[b]
			}
			if n == badAt {
				bp[0] = -1
			}
			n++
			return nil
		}}
	}
	const victim, badAt = 1, 3
	ref := make([][]float64, kk)
	for k := range ref {
		n := steps
		if k == victim {
			n = badAt
		}
		ref[k] = oil.AmbientState()
		if errs := RunLoops([]LoopJob{loop(k, ref[k], n, -1)}, 1); errs[0] != nil {
			t.Fatal(errs[0])
		}
	}
	for _, workers := range []int{1, 2} {
		got := make([][]float64, kk)
		jobs := make([]LoopJob, kk)
		for k := range jobs {
			bad := -1
			if k == victim {
				bad = badAt
			}
			got[k] = oil.AmbientState()
			jobs[k] = loop(k, got[k], steps, bad)
		}
		errs := RunLoops(jobs, workers)
		for k := range jobs {
			switch {
			case k == victim && (errs[k] == nil || !strings.Contains(errs[k].Error(), "invalid power")):
				t.Fatalf("workers=%d: invalid loop error: %v", workers, errs[k])
			case k != victim && errs[k] != nil:
				t.Fatalf("workers=%d: healthy loop %d failed: %v", workers, k, errs[k])
			}
			for i := range ref[k] {
				if got[k][i] != ref[k][i] {
					t.Fatalf("workers=%d loop %d node %d: %v vs width-1 %v", workers, k, i, got[k][i], ref[k][i])
				}
			}
		}
	}
}
