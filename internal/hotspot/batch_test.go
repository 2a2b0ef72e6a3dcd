package hotspot

import (
	"math"
	"testing"

	"repro/internal/floorplan"
)

// pulseSchedule returns a schedule putting watts on one block for the first
// onFor seconds.
func pulseSchedule(fp *floorplan.Floorplan, block string, watts, onFor float64) func(t float64, p []float64) {
	idx := fp.Index(block)
	return func(t float64, p []float64) {
		for i := range p {
			p[i] = 0
		}
		if t < onFor {
			p[idx] = watts
		}
	}
}

// TestRunTraceBatchMatchesRunTrace: a same-model sweep, which runs as one
// lockstep group, must reproduce the serial RunTrace replays exactly.
func TestRunTraceBatchMatchesRunTrace(t *testing.T) {
	fp := floorplan.EV6()
	m := oilModel(t, fp, Uniform, 1.0, true)
	blocks := []string{"IntReg", "Dcache", "L2", "FPMap"}
	var jobs []SweepJob
	var want [][]TracePoint
	for _, b := range blocks {
		sched := pulseSchedule(fp, b, 3, 5e-3)
		pts, err := m.RunTrace(m.AmbientState(), sched, 10e-3, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, pts)
		jobs = append(jobs, SweepJob{Model: m, TraceJob: TraceJob{
			Temps:       m.AmbientState(),
			Schedule:    sched,
			Duration:    10e-3,
			SampleEvery: 1e-3,
		}})
	}
	got, err := RunSweep(jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
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
	sched := pulseSchedule(fp, "IntReg", 2, 4e-3)
	job := func(m *Model) SweepJob {
		return SweepJob{Model: m, TraceJob: TraceJob{
			Temps:       m.AmbientState(),
			Schedule:    sched,
			Duration:    8e-3,
			SampleEvery: 1e-3,
		}}
	}
	pts, err := RunSweep([]SweepJob{job(oil), job(air), job(oil)}, 0)
	if err != nil {
		t.Fatal(err)
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
