package experiments

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/hotspot"
	"repro/internal/ircam"
	"repro/internal/scenario"
	"repro/internal/sensors"
)

// TestFullPipelineIntegration chains every layer once: synthetic workload →
// Wattch power trace → thermal model → sensor placement → DTM closed loop →
// IR camera. It asserts cross-layer consistency rather than any single
// paper number.
func TestFullPipelineIntegration(t *testing.T) {
	fp := floorplan.EV6()

	// 1. Workload → power.
	tr, err := core.RunWorkload(core.WorkloadSpec{Cycles: 6_000_000, WarmupCycles: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Interval <= 0 || len(tr.Rows) < 100 {
		t.Fatalf("trace malformed: %d rows at %g s", len(tr.Rows), tr.Interval)
	}

	// 2. Thermal model, steady state.
	model, err := evOil(hotspot.LeftToRight, 0.3, true, fig12AmbientK)
	if err != nil {
		t.Fatal(err)
	}
	powers := avgPowerMap(tr)
	vec, err := model.PowerVector(powers)
	if err != nil {
		t.Fatal(err)
	}
	steady := model.SteadyState(vec)
	_, hotC := steady.Hottest()
	if hotC <= materials45() {
		t.Fatalf("hot spot %.1f °C below ambient", hotC)
	}

	// 3. Sensor placement on the steady map.
	grid := steady.Grid(32, 32)
	tm, err := sensors.NewThermalMap(32, 32, fp.Width(), fp.Height(), grid)
	if err != nil {
		t.Fatal(err)
	}
	// The hot blocks are sub-millimeter, so the candidate grid must be
	// fine enough for a sensor to land inside them.
	placed, errC, err := sensors.Place(sensors.CandidateGrid(fp, 16, 16), []*sensors.ThermalMap{tm}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if errC > 10 {
		t.Fatalf("2-sensor placement error %.2f °C too large for its own training map", errC)
	}
	// The first sensor should land in (or adjacent to) the hottest block's
	// neighborhood — sanity of the placement objective.
	if placed[0].Block == "" {
		t.Fatal("sensor not attached to a block")
	}

	// 4. DTM closed loop using the placed sensors: a one-cell scenario that
	// replays the trace, one row per control step, on the same package.
	spec := &scenario.Spec{
		Interval:      tr.Interval,
		EmergencyC:    hotC + 20,
		InitialSteady: true,
		Phases:        []scenario.Phase{tracePhase(tr)},
		Packages:      []scenario.PackageSpec{{Kind: "oil-silicon", Rconv: 0.3, Direction: "left-to-right", Secondary: true}},
		Policies: scenario.PolicyGrid{
			TriggerC:        []float64{hotC - 2},
			EngageDurationS: []float64{5e-3},
			SampleIntervalS: []float64{tr.Interval * 10},
			PerfFactor:      []float64{0.5},
		},
	}
	for _, s := range placed {
		spec.Sensors = append(spec.Sensors, scenario.Sensor{Block: s.Block})
	}
	loop, err := scenario.Compile(spec, scenario.Options{Models: func(cfg hotspot.Config) (*hotspot.Model, error) {
		if cfg.Fingerprint() != model.Config().Fingerprint() {
			return nil, errors.New("package spec differs from the steady-state model")
		}
		return model, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	cell := loop.RunGrid(nil, 1, nil)[0]
	if cell.Err != nil {
		t.Fatal(cell.Err)
	}
	if cell.Metrics.PeakC < 45 {
		t.Fatalf("implausible DTM peak %.1f", cell.Metrics.PeakC)
	}

	// 5. IR camera over the same map: blurred max ≤ true max.
	cam := ircam.Camera{FrameRate: 60, PixelsX: 32, PixelsY: 32, PSFSigmaPixels: 1}
	img, err := cam.Capture(tm)
	if err != nil {
		t.Fatal(err)
	}
	trueMax, _, _ := tm.Max()
	seenMax, _, _ := img.Max()
	if seenMax > trueMax+1e-9 {
		t.Fatalf("camera cannot see hotter than reality: %g vs %g", seenMax, trueMax)
	}

	// 6. Power inversion closes the loop within tolerance.
	inverted, err := ircam.InvertPower(model, steady.BlocksC(), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range fp.Names() {
		want := powers[n]
		if math.Abs(inverted[i]-want) > 0.02*(1+want) {
			t.Fatalf("inversion mismatch at %s: %.3f vs %.3f", n, inverted[i], want)
		}
	}
}

func materials45() float64 { return 45 }

// TestExperimentDeterminism: the workload pipeline is seeded, so repeated
// experiment runs produce identical headline numbers.
func TestExperimentDeterminism(t *testing.T) {
	a, err := Fig11FlowDirections(quick)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig11FlowDirections(quick)
	if err != nil {
		t.Fatal(err)
	}
	for d := range a.TempC {
		for i := range a.TempC[d] {
			if a.TempC[d][i] != b.TempC[d][i] {
				t.Fatalf("nondeterministic result at [%d][%d]", d, i)
			}
		}
	}
}
