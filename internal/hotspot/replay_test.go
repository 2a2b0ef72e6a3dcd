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
// from every replay entry point, never a panic.
func TestEmptyTraceErrors(t *testing.T) {
	m := testModel(t)
	empty, err := trace.New(m.Floorplan().Names(), 1e-3)
	if err != nil {
		t.Fatal(err)
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

// panicRows is a row source whose rows blow up after the first few.
type panicRows struct {
	trace.RowReader
	n int
}

func (r *panicRows) Next(dst []float64) error {
	r.n++
	if r.n > 3 {
		panic("row source exploded")
	}
	return r.RowReader.Next(dst)
}

// TestSweepPanicBecomesError: a row source that panics mid-replay fails its
// own job without crashing the process, and a well-formed sibling job in
// the same lockstep group still completes.
func TestSweepPanicBecomesError(t *testing.T) {
	m := testModel(t)
	tr := pulseTrace(t, m.Floorplan())
	jobs := []ReplayJob{
		{Model: m, Rows: &panicRows{RowReader: tr.Reader()}},
		{Model: m, Rows: tr.Reader()},
	}
	results, errs := ReplayBatchResults(jobs, 2)
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "row 4") || !strings.Contains(errs[0].Error(), "panicked") {
		t.Fatalf("want a row-4 panic error, got %v", errs[0])
	}
	if errs[1] != nil || len(results[1]) != len(tr.Rows)+1 {
		t.Fatalf("good job should still have completed: %d points, err %v", len(results[1]), errs[1])
	}
}

// TestShortTraceStillRuns: a one-row trace is not an error — it runs one
// step.
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
