package tstore

import (
	"sync"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/hotspot"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// teeSink records every append in memory while forwarding it to a store
// writer — one simulation run feeds both sides, so the comparison below is
// free of any cross-run determinism assumption. It takes scenario's
// per-row appends and hotspot's whole-series appends alike.
type teeSink struct {
	mu  sync.Mutex
	buf map[string][]Row
	w   *Writer
}

func (s *teeSink) Append(series string, tSec, v float64) error {
	if err := s.w.Append(series, tSec, v); err != nil {
		return err
	}
	s.record(series, []float64{tSec}, []float64{v})
	return nil
}

func (s *teeSink) AppendSeries(series string, times, values []float64) error {
	if err := s.w.AppendSeries(series, times, values); err != nil {
		return err
	}
	s.record(series, times, values)
	return nil
}

func (s *teeSink) record(series string, times, values []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.buf == nil {
		s.buf = make(map[string][]Row)
	}
	for i, tSec := range times {
		s.buf[series] = append(s.buf[series], Row{T: Nanos(tSec), V: values[i]})
	}
}

func assertPersistedMatchesBuffered(t *testing.T, st *Store, run string, buf map[string][]Row) {
	t.Helper()
	if len(buf) == 0 {
		t.Fatal("no buffered telemetry to compare")
	}
	total := 0
	for series, want := range buf {
		res, err := st.Query(run+"/"+series, -1<<62, 1<<62, 0)
		if err != nil {
			t.Fatalf("series %q: %v", series, err)
		}
		if len(res.Rows) != len(want) {
			t.Fatalf("series %q: %d persisted rows, %d buffered", series, len(res.Rows), len(want))
		}
		for i := range want {
			if res.Rows[i] != want[i] {
				t.Fatalf("series %q row %d: persisted %+v, buffered %+v", series, i, res.Rows[i], want[i])
			}
		}
		total += len(want)
	}
	if total == 0 {
		t.Fatal("zero telemetry rows")
	}
}

// TestScenarioPersistedMatchesBuffered is the golden replay gate: one
// scenario.RunGridTelemetry run feeds an in-memory buffer and the store
// simultaneously; every persisted series, flushed through segments and read
// back with Query, must equal the buffered output bit for bit. CI runs this
// by name as its own step.
func TestScenarioPersistedMatchesBuffered(t *testing.T) {
	spec := &scenario.Spec{
		Name:       "golden",
		Interval:   1e-3,
		EmergencyC: 1e6,
		Phases: []scenario.Phase{{
			Name:     "burst",
			Duration: 0.06,
			Pulse:    &scenario.PulseSpec{Block: "IntReg", PeakW: 3, OnS: 10e-3, OffS: 15e-3},
		}},
		Packages: []scenario.PackageSpec{
			{Label: "air", Kind: "air-sink", Rconv: 1.0},
			{Label: "oil", Kind: "oil-silicon", Rconv: 1.0},
		},
		Sensors: []scenario.Sensor{{Block: "IntReg"}, {Block: "Dcache", OffsetC: 0.5}},
		Policies: scenario.PolicyGrid{
			TriggerC:        []float64{1e6, 400},
			EngageDurationS: []float64{5e-3},
			PerfFactor:      []float64{0.5},
			SampleIntervalS: []float64{2e-3},
		},
	}
	c, err := scenario.Compile(spec, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// FlushRows below the per-series row count forces the comparison through
	// real segment encode/decode, not just the staged tail.
	st := mustOpen(t, t.TempDir(), Options{FlushRows: 16})
	sink := &teeSink{w: NewWriter(st, "golden")}
	for _, r := range c.RunGridTelemetry(nil, 2, nil, sink) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	assertPersistedMatchesBuffered(t, st, "golden", sink.buf)

	// The same equality must survive close and recovery.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := mustOpen(t, st.Dir(), Options{FlushRows: 16})
	assertPersistedMatchesBuffered(t, st2, "golden", sink.buf)
}

// TestSweepPersistedMatchesBuffered is the sweep flavor of the golden
// gate: a trace-replay sweep emitted through EmitTracePoints reads back bit
// for bit.
func TestSweepPersistedMatchesBuffered(t *testing.T) {
	fp := floorplan.EV6()
	model, err := hotspot.New(hotspot.Config{
		Floorplan: fp,
		Package:   hotspot.AirSink,
		Air:       hotspot.AirSinkConfig{RConvec: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.PulseTrain(fp.Names(), "FPMap", 4, 2e-3, 3e-3, 0.5e-3, 3)
	if err != nil {
		t.Fatal(err)
	}
	pts, errs := hotspot.ReplayBatchResults([]hotspot.ReplayJob{{Model: model, Rows: tr.Reader()}}, 1)
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	st := mustOpen(t, t.TempDir(), Options{FlushRows: 32})
	sink := &teeSink{w: NewWriter(st, "sweep")}
	if err := hotspot.EmitTracePoints(sink, "job0", fp.Names(), pts[0]); err != nil {
		t.Fatal(err)
	}
	assertPersistedMatchesBuffered(t, st, "sweep", sink.buf)
}
