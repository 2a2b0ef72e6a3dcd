package hotspot

import (
	"strings"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/trace"
)

// Parity tests for the lockstep batch paths at the hotspot layer: RunSweep
// and ReplayBatchResults must reproduce their sequential counterparts bit
// for bit at any worker count, and the K-wide BatchSession must match
// width-1 stepping.

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
// same-model scenarios must match per-job sequential RunTrace bitwise at
// every worker count (same-model jobs lockstep; chunking varies with
// workers).
func TestRunSweepLockstepParity(t *testing.T) {
	oil, air := lockstepModels(t)
	traces := []*trace.PowerTrace{pulse(t, "IntReg"), pulse(t, "FPMap"), pulse(t, "Dcache")}
	mkJobs := func() []SweepJob {
		var jobs []SweepJob
		for _, m := range []*Model{oil, air} {
			for _, tr := range traces {
				tr := tr
				jobs = append(jobs, SweepJob{Model: m, TraceJob: TraceJob{
					Temps:       m.AmbientState(),
					Schedule:    func(tm float64, p []float64) { copy(p, tr.At(tm)) },
					Duration:    tr.Duration(),
					SampleEvery: tr.Interval,
				}})
			}
		}
		return jobs
	}
	ref := make([][]TracePoint, 0)
	for _, job := range mkJobs() {
		pts, err := job.Model.RunTrace(job.Temps, job.Schedule, job.Duration, job.SampleEvery)
		if err != nil {
			t.Fatal(err)
		}
		ref = append(ref, pts)
	}
	for _, workers := range []int{1, 2, 5} {
		got, err := RunSweep(mkJobs(), workers)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ref {
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

// TestBatchSessionStepBlockPowerParity: the K-wide stepping session must
// match per-cell width-1 stepping bitwise, and an invalid slot must fail
// alone without advancing its state.
func TestBatchSessionStepBlockPowerParity(t *testing.T) {
	oil, _ := lockstepModels(t)
	nb := oil.Config().Floorplan.N()
	const kk = 3
	seq := make([][]float64, kk)
	bat := make([][]float64, kk)
	pws := make([][]float64, kk)
	for k := 0; k < kk; k++ {
		seq[k] = oil.AmbientState()
		bat[k] = oil.AmbientState()
		pws[k] = make([]float64, nb)
		for b := range pws[k] {
			pws[k][b] = float64(k+1) * 0.3
		}
	}
	bs := oil.NewBatchSession(kk)
	errs := make([]error, kk)
	for step := 0; step < 5; step++ {
		for k := 0; k < kk; k++ {
			np, err := oil.BlockPowerVector(pws[k])
			if err != nil {
				t.Fatal(err)
			}
			if err := oil.solver.NewSession().StepBE(seq[k], np, 1e-3); err != nil {
				t.Fatal(err)
			}
		}
		if err := bs.StepBlockPower(bat, pws, 1e-3, errs); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < kk; k++ {
			if errs[k] != nil {
				t.Fatalf("slot %d: %v", k, errs[k])
			}
			for i := range bat[k] {
				if bat[k][i] != seq[k][i] {
					t.Fatalf("step %d slot %d node %d: %v vs %v", step, k, i, bat[k][i], seq[k][i])
				}
			}
		}
	}

	// Invalid power in one slot: that slot errors and freezes, others step.
	before := append([]float64(nil), bat[1]...)
	pws[1][0] = -1
	if err := bs.StepBlockPower(bat, pws, 1e-3, errs); err != nil {
		t.Fatal(err)
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "invalid power") {
		t.Fatalf("invalid slot error: %v", errs[1])
	}
	for i := range before {
		if bat[1][i] != before[i] {
			t.Fatal("failed slot advanced")
		}
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("healthy slots failed: %v %v", errs[0], errs[2])
	}
}
