package scenario

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
)

// telSpec is a compact 2-package × 2-policy grid with two sensors, short
// enough to run in milliseconds but long enough to cross several sample
// periods.
func telSpec() *Spec {
	return &Spec{
		Name:       "telemetry",
		Interval:   1e-3,
		EmergencyC: 1e6,
		Phases: []Phase{{
			Name:     "burst",
			Duration: 0.05,
			Pulse:    &PulseSpec{Block: "IntReg", PeakW: 3, OnS: 10e-3, OffS: 15e-3},
		}},
		Packages: []PackageSpec{
			{Label: "air", Kind: "air-sink", Rconv: 1.0},
			{Label: "oil", Kind: "oil-silicon", Rconv: 1.0},
		},
		Sensors: []Sensor{{Block: "IntReg"}, {Block: "Dcache", OffsetC: 0.5}},
		Policies: PolicyGrid{
			TriggerC:        []float64{1e6, 400},
			EngageDurationS: []float64{5e-3},
			PerfFactor:      []float64{0.5},
			SampleIntervalS: []float64{2e-3},
		},
	}
}

type gridSink struct {
	mu   sync.Mutex
	rows map[string][]struct{ t, v float64 }
	fail string // series name to fail on, "" = never
}

func (g *gridSink) Append(series string, t, v float64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.fail != "" && series == g.fail {
		return errors.New("sink refused")
	}
	if g.rows == nil {
		g.rows = make(map[string][]struct{ t, v float64 })
	}
	g.rows[series] = append(g.rows[series], struct{ t, v float64 }{t, v})
	return nil
}

// TestRunGridTelemetryRecordsSensedValues checks the telemetry tap end to
// end: identical results to RunGrid, the advertised series names, sample
// times on the controller's cadence, and finite sensed values whose
// per-cell max matches the cell's ObservedPeakC.
func TestRunGridTelemetryRecordsSensedValues(t *testing.T) {
	c, err := Compile(telSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain := c.RunGrid(nil, 2, nil)
	sink := &gridSink{}
	tapped := c.RunGridTelemetry(nil, 2, nil, sink)
	if !reflect.DeepEqual(plain, tapped) {
		t.Fatal("telemetry tap changed the simulation results")
	}

	cells := c.Cells()
	const sampleEvery = 2e-3
	steps := c.Steps()
	wantSamples := (steps + 1) / 2 // every 2nd step starting at 0
	for _, cell := range cells {
		series := c.TelemetrySeries(cell.Index)
		if len(series) != 2 {
			t.Fatalf("cell %d: series %v", cell.Index, series)
		}
		obsPeak := math.Inf(-1)
		for _, name := range series {
			rows := sink.rows[name]
			if len(rows) != wantSamples {
				t.Fatalf("series %q: %d samples, want %d", name, len(rows), wantSamples)
			}
			for i, r := range rows {
				if want := float64(2*i) * 1e-3; math.Abs(r.t-want) > 1e-12 {
					t.Fatalf("series %q sample %d at t=%v, want %v", name, i, r.t, want)
				}
				if math.IsNaN(r.v) || math.IsInf(r.v, 0) {
					t.Fatalf("series %q sample %d non-finite: %v", name, i, r.v)
				}
				if r.v > obsPeak {
					obsPeak = r.v
				}
			}
		}
		if got := tapped[cell.Index].Metrics.ObservedPeakC; got != obsPeak {
			t.Fatalf("cell %d: telemetry max %v, ObservedPeakC %v", cell.Index, obsPeak, got)
		}
	}
	if len(sink.rows) != len(cells)*2 {
		t.Fatalf("%d series recorded, want %d", len(sink.rows), len(cells)*2)
	}
}

// TestRunGridTelemetryOracleSeries: with no sensors configured the tap
// records the single oracle "hot" series per cell.
func TestRunGridTelemetryOracleSeries(t *testing.T) {
	spec := telSpec()
	spec.Sensors = nil
	spec.Packages = spec.Packages[:1]
	c, err := Compile(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sink := &gridSink{}
	res := c.RunGridTelemetry(nil, 1, nil, sink)
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	for _, cell := range c.Cells() {
		series := c.TelemetrySeries(cell.Index)
		if len(series) != 1 || series[0] != "cell"+itoa(cell.Index)+"/hot" {
			t.Fatalf("cell %d series %v", cell.Index, series)
		}
		if len(sink.rows[series[0]]) == 0 {
			t.Fatalf("no oracle samples for cell %d", cell.Index)
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for ; i > 0; i /= 10 {
		b = append([]byte{byte('0' + i%10)}, b...)
	}
	return string(b)
}

// TestRunGridTelemetrySinkErrorFailsOneCell: a sink refusing one cell's
// series fails that cell and leaves the rest of the grid intact.
func TestRunGridTelemetrySinkErrorFailsOneCell(t *testing.T) {
	c, err := Compile(telSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	victim := c.TelemetrySeries(1)[0]
	sink := &gridSink{fail: victim}
	calls := cellCalls{}
	res := c.RunGridTelemetry(nil, 2, calls.onCell, sink)
	calls.check(t, res)
	failed := 0
	for _, r := range res {
		if r.Cell.Index == 1 {
			if r.Err == nil {
				t.Fatal("victim cell did not fail")
			}
			failed++
			continue
		}
		if r.Err != nil {
			t.Fatalf("cell %d collateral failure: %v", r.Cell.Index, r.Err)
		}
	}
	if failed != 1 {
		t.Fatalf("%d failed cells", failed)
	}
}
