package hotspot

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/trace"
)

// pulseRows returns a one-period pulse trace at 1 ms rows: watts on one
// block for onFor seconds, then nothing for offFor.
func pulseRows(t *testing.T, fp *floorplan.Floorplan, block string, watts, onFor, offFor float64) *trace.PowerTrace {
	t.Helper()
	tr, err := trace.PulseTrain(fp.Names(), block, watts, onFor, offFor, 1e-3, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestRunTraceBatchMatchesRunTrace: a same-model sweep, which runs as one
// lockstep group, must reproduce the serial row replays exactly.
func TestRunTraceBatchMatchesRunTrace(t *testing.T) {
	fp := floorplan.EV6()
	m := oilModel(t, fp, Uniform, 1.0, true)
	blocks := []string{"IntReg", "Dcache", "L2", "FPMap"}
	var jobs []ReplayJob
	var want [][]TracePoint
	for _, b := range blocks {
		tr := pulseRows(t, fp, b, 3, 5e-3, 5e-3)
		pts, err := m.NewSession().ReplayRows(m.AmbientState(), tr.Reader())
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, pts)
		jobs = append(jobs, ReplayJob{Model: m, Rows: tr.Reader()})
	}
	got, errs := ReplayBatchResults(jobs, 0)
	for j := range want {
		if errs[j] != nil {
			t.Fatalf("job %d: %v", j, errs[j])
		}
		if len(got[j]) != len(want[j]) {
			t.Fatalf("job %d: %d points vs %d", j, len(got[j]), len(want[j]))
		}
		for k := range want[j] {
			for i := range want[j][k].BlockC {
				if got[j][k].BlockC[i] != want[j][k].BlockC[i] {
					t.Fatalf("job %d point %d block %d: %g vs %g",
						j, k, i, got[j][k].BlockC[i], want[j][k].BlockC[i])
				}
			}
		}
	}
}

// TestRunSweepAcrossModels: one sweep mixing two different models and a
// repeated model. Jobs sharing a model must not interfere (exercised under
// -race in CI).
func TestRunSweepAcrossModels(t *testing.T) {
	fp := floorplan.EV6()
	oil := oilModel(t, fp, Uniform, 1.0, false)
	air := airModel(t, fp, 1.0, false)
	tr := pulseRows(t, fp, "IntReg", 2, 4e-3, 4e-3)
	var jobs []ReplayJob
	for _, m := range []*Model{oil, air, oil} {
		jobs = append(jobs, ReplayJob{Model: m, Rows: tr.Reader()})
	}
	pts, errs := ReplayBatchResults(jobs, 0)
	for j, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", j, err)
		}
	}
	// The two oil replays are identical jobs: identical results.
	for k := range pts[0] {
		for i := range pts[0][k].BlockC {
			if pts[0][k].BlockC[i] != pts[2][k].BlockC[i] {
				t.Fatalf("identical oil jobs disagree at point %d block %d", k, i)
			}
		}
	}
	// And a short heat pulse must actually heat IntReg in every replay.
	idx := fp.Index("IntReg")
	for j := range pts {
		rise := pts[j][4].BlockC[idx] - pts[j][0].BlockC[idx]
		if math.IsNaN(rise) || rise <= 0 {
			t.Fatalf("job %d: IntReg did not heat (rise %g)", j, rise)
		}
	}
}
