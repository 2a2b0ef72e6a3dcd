package hotspot

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/trace"
)

func testModel(t *testing.T) *Model {
	t.Helper()
	m, err := New(Config{
		Floorplan: floorplan.EV6(),
		Package:   AirSink,
		AmbientK:  318.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func pulseTrace(t *testing.T, fp *floorplan.Floorplan) *trace.PowerTrace {
	t.Helper()
	tr, err := trace.PulseTrain(fp.Names(), "IntReg", 3.0, 5e-3, 5e-3, 1e-3, 3)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestReplayStreamedMatchesLoaded: replaying rows streamed through the
// ptrace decoder must be bit-identical to replaying the same in-memory
// trace through its cursor. Every other row carries a full-precision power,
// so the stream mixes short decimals and 17-digit values.
func TestReplayStreamedMatchesLoaded(t *testing.T) {
	m := testModel(t)
	tr := pulseTrace(t, m.Floorplan())
	for i, row := range tr.Rows {
		if i%2 == 1 {
			row[i%len(row)] = 1 / float64(i+2)
		}
	}

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := trace.NewDecoder(&buf, trace.DecoderOptions{})
	if err != nil {
		t.Fatal(err)
	}

	loaded, err := m.NewSession().ReplayRows(m.AmbientState(), tr.Reader())
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := m.NewSession().ReplayRows(m.AmbientState(), dec)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(streamed) {
		t.Fatalf("point count: %d vs %d", len(loaded), len(streamed))
	}
	for i := range loaded {
		if loaded[i].Time != streamed[i].Time {
			t.Fatalf("point %d: time %.17g vs %.17g", i, loaded[i].Time, streamed[i].Time)
		}
		for b := range loaded[i].BlockC {
			if loaded[i].BlockC[b] != streamed[i].BlockC[b] {
				t.Fatalf("point %d block %d: %.17g vs %.17g (not bit-identical)",
					i, b, loaded[i].BlockC[b], streamed[i].BlockC[b])
			}
		}
	}
}

// TestReplayMatchesRunTrace: the streaming replay and the schedule-driven
// trace API integrate the same physics.
func TestReplayMatchesRunTrace(t *testing.T) {
	m := testModel(t)
	tr := pulseTrace(t, m.Floorplan())
	cols := m.TraceColumns(tr.Names)

	viaSchedule, err := m.RunTrace(m.AmbientState(), func(tm float64, p []float64) {
		row := tr.At(tm)
		for c, bi := range cols {
			if bi >= 0 {
				p[bi] = row[c]
			}
		}
	}, tr.Duration(), tr.Interval)
	if err != nil {
		t.Fatal(err)
	}
	viaReplay, err := m.NewSession().ReplayRows(m.AmbientState(), tr.Reader())
	if err != nil {
		t.Fatal(err)
	}
	if len(viaSchedule) != len(viaReplay) {
		t.Fatalf("point count: %d vs %d", len(viaSchedule), len(viaReplay))
	}
	for i := range viaSchedule {
		for b := range viaSchedule[i].BlockC {
			if d := math.Abs(viaSchedule[i].BlockC[b] - viaReplay[i].BlockC[b]); d > 1e-9 {
				t.Fatalf("point %d block %d: |%g - %g| = %g", i, b,
					viaSchedule[i].BlockC[b], viaReplay[i].BlockC[b], d)
			}
		}
	}
}

// TestSessionSteadyMatchesSolver: the session steady solve, memo included,
// returns the same answer as the stateless one, on repeated and varied
// power maps.
func TestSessionSteadyMatchesSolver(t *testing.T) {
	m := testModel(t)
	se := m.NewSession()
	for _, watts := range []float64{2, 2, 5, 0.5} {
		p, err := m.PowerVector(map[string]float64{"IntReg": watts, "Dcache": watts / 2})
		if err != nil {
			t.Fatal(err)
		}
		want := m.SteadyState(p)
		got := se.SteadyState(p)
		for i := range want.Temps {
			if d := math.Abs(want.Temps[i] - got.Temps[i]); d > 1e-9 {
				t.Fatalf("watts=%g node %d: session %.12g vs solver %.12g", watts, i, got.Temps[i], want.Temps[i])
			}
		}
	}
}

// TestRunReplayBatchSharedModel: N jobs against one model through
// ReplayBatchResults match N serial replays.
func TestRunReplayBatchSharedModel(t *testing.T) {
	m := testModel(t)
	tr := pulseTrace(t, m.Floorplan())
	const n = 4
	jobs := make([]ReplayJob, n)
	for i := range jobs {
		jobs[i] = ReplayJob{Model: m, Rows: tr.Reader()}
	}
	batch, errs := ReplayBatchResults(jobs, n)
	for j, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", j, err)
		}
	}
	serial, err := m.NewSession().ReplayRows(m.AmbientState(), tr.Reader())
	if err != nil {
		t.Fatal(err)
	}
	for j := range batch {
		if len(batch[j]) != len(serial) {
			t.Fatalf("job %d: %d points vs %d", j, len(batch[j]), len(serial))
		}
		for i := range serial {
			for b := range serial[i].BlockC {
				if batch[j][i].BlockC[b] != serial[i].BlockC[b] {
					t.Fatalf("job %d point %d block %d differs", j, i, b)
				}
			}
		}
	}
}

// TestEmptyTraceErrors: a zero-length trace must yield a descriptive error
// from every batch entry point, never a panic. (Regression: these paths
// assumed fully-materialized traces and reached an index panic via
// PowerTrace.At on an empty trace.)
func TestEmptyTraceErrors(t *testing.T) {
	m := testModel(t)
	empty, err := trace.New(m.Floorplan().Names(), 1e-3)
	if err != nil {
		t.Fatal(err)
	}

	// Schedule replay of an empty trace: Duration() == 0.
	_, err = m.RunTrace(m.AmbientState(), func(tm float64, p []float64) { copy(p, empty.At(tm)) },
		empty.Duration(), empty.Interval)
	if err == nil || !strings.Contains(err.Error(), "duration") {
		t.Fatalf("RunTrace empty trace: got %v", err)
	}

	// Sweep with an empty trace.
	_, err = RunSweep([]SweepJob{{Model: m, TraceJob: TraceJob{
		Temps:       m.AmbientState(),
		Schedule:    func(tm float64, p []float64) { copy(p, empty.At(tm)) },
		Duration:    empty.Duration(),
		SampleEvery: empty.Interval,
	}}}, 0)
	if err == nil || !strings.Contains(err.Error(), "job 0") || !strings.Contains(err.Error(), "duration") {
		t.Fatalf("RunSweep empty trace: got %v", err)
	}

	// Streaming replay of an empty trace, alone and in a batch.
	_, err = m.NewSession().ReplayRows(m.AmbientState(), empty.Reader())
	if err == nil || !strings.Contains(err.Error(), "no power rows") {
		t.Fatalf("ReplayRows empty trace: got %v", err)
	}
	_, errs := ReplayBatchResults([]ReplayJob{{Model: m, Rows: empty.Reader()}}, 0)
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "no power rows") {
		t.Fatalf("ReplayBatchResults empty trace: got %v", errs[0])
	}
}

// TestSweepPanicBecomesError: a schedule that panics mid-replay (the old
// empty-trace failure mode) fails its own job without crashing the process,
// and well-formed sibling jobs still complete.
func TestSweepPanicBecomesError(t *testing.T) {
	m := testModel(t)
	tr := pulseTrace(t, m.Floorplan())
	cols := m.TraceColumns(tr.Names)
	good := SweepJob{Model: m, TraceJob: TraceJob{
		Temps: m.AmbientState(),
		Schedule: func(tm float64, p []float64) {
			row := tr.At(tm)
			for c, bi := range cols {
				if bi >= 0 {
					p[bi] = row[c]
				}
			}
		},
		Duration:    tr.Duration(),
		SampleEvery: tr.Interval,
	}}
	bad := good
	bad.Temps = m.AmbientState() // the jobs may run concurrently: no shared state
	bad.Schedule = func(tm float64, p []float64) { panic("schedule exploded") }
	results, err := RunSweep([]SweepJob{bad, good}, 2)
	if err == nil || !strings.Contains(err.Error(), "job 0") || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("want job-0 panic error, got %v", err)
	}
	if results[1] == nil {
		t.Fatal("good job should still have completed")
	}
}

// TestShortTraceStillRuns: a trace shorter than one sample interval is not
// an error — it runs one shortened step.
func TestShortTraceStillRuns(t *testing.T) {
	m := testModel(t)
	tr, err := trace.Step(m.Floorplan().Names(), map[string]float64{"IntReg": 2}, 1e-3, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := m.NewSession().ReplayRows(m.AmbientState(), tr.Reader())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 { // initial state + one step
		t.Fatalf("got %d points, want 2", len(pts))
	}
}
