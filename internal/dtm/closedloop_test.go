package dtm_test

import (
	"testing"

	"repro/internal/floorplan"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// The policy tests below run the controller in closed loop through the
// scenario engine, the one loop every DTM run goes through.

// burstSpec is one closed loop over a trace phase: ten periods of 3 W
// bursts on IntReg, 30 ms on and 70 ms off, one row per 1 ms control
// interval, on OIL-SILICON at R_conv 1 from the average power's steady
// state. Policy axes left empty take the grid defaults: 5 ms engagements,
// 1 ms sampling, performance factor 0.5, fetch gating.
func burstSpec(t *testing.T, policies scenario.PolicyGrid) *scenario.Spec {
	t.Helper()
	tr, err := trace.PulseTrain(floorplan.EV6().Names(), "IntReg", 3.0, 30e-3, 70e-3, 1e-3, 10)
	if err != nil {
		t.Fatal(err)
	}
	return &scenario.Spec{
		Interval:      tr.Interval,
		EmergencyC:    1000,
		InitialSteady: true,
		Phases: []scenario.Phase{{
			Name:     "burst",
			Duration: tr.Duration(),
			Trace:    &scenario.TraceSpec{Names: tr.Names, Interval: tr.Interval, Rows: tr.Rows},
		}},
		Packages: []scenario.PackageSpec{{Kind: "oil-silicon", Rconv: 1}},
		Policies: policies,
	}
}

// runCells compiles spec and runs its grid serially, failing on any error.
func runCells(t *testing.T, spec *scenario.Spec) []scenario.Metrics {
	t.Helper()
	c, err := scenario.Compile(spec, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out []scenario.Metrics
	for _, r := range c.RunGrid(nil, 1, nil) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		out = append(out, r.Metrics)
	}
	return out
}

// TestDVFSCoolsMoreThanFetchGate: at the same performance factor, DVFS cuts
// power cubically and therefore yields a lower peak temperature.
func TestDVFSCoolsMoreThanFetchGate(t *testing.T) {
	m := runCells(t, burstSpec(t, scenario.PolicyGrid{
		TriggerC:  []float64{55},
		Actuators: []string{"fetch-gate", "dvfs"},
	}))
	fg, dv := m[0], m[1]
	if fg.EngagedS == 0 || dv.EngagedS == 0 {
		t.Fatal("both policies should engage")
	}
	if dv.PeakC >= fg.PeakC {
		t.Fatalf("DVFS peak %.2f should undercut fetch-gate %.2f", dv.PeakC, fg.PeakC)
	}
}

// TestSlowSamplingDelaysResponse: a controller sampling too slowly engages
// later and lets the die run hotter.
func TestSlowSamplingDelaysResponse(t *testing.T) {
	m := runCells(t, burstSpec(t, scenario.PolicyGrid{
		TriggerC:        []float64{55},
		SampleIntervalS: []float64{1e-3, 50e-3},
	}))
	fast, slow := m[0], m[1]
	// A 50 ms sampler sees at most a couple of instants per 100 ms burst
	// period, so it can keep DTM engaged for far less total time.
	if slow.EngagedS >= fast.EngagedS {
		t.Fatalf("slow sampling should throttle less: %g vs %g s", slow.EngagedS, fast.EngagedS)
	}
	if slow.PeakC < fast.PeakC-1e-9 {
		t.Fatalf("slow sampling should not lower the peak: %.2f vs %.2f", slow.PeakC, fast.PeakC)
	}
}

// TestHigherThresholdFewerEngagements: raising the trigger reduces engaged
// time and performance penalty.
func TestHigherThresholdFewerEngagements(t *testing.T) {
	m := runCells(t, burstSpec(t, scenario.PolicyGrid{TriggerC: []float64{50, 75}}))
	low, high := m[0], m[1]
	if high.EngagedS > low.EngagedS {
		t.Fatalf("higher trigger should engage less: %g vs %g", high.EngagedS, low.EngagedS)
	}
	if high.PerfPenalty > low.PerfPenalty {
		t.Fatalf("higher trigger should cost less: %g vs %g", high.PerfPenalty, low.PerfPenalty)
	}
}

// TestMisplacedSensorMissesEmergency: §5.4: a sensor on a cool block
// under-reports; the oracle sees the violation, the bad sensor does not.
func TestMisplacedSensorMissesEmergency(t *testing.T) {
	run := func(sensors []scenario.Sensor) scenario.Metrics {
		// Never engage: the pair compares observation only.
		s := burstSpec(t, scenario.PolicyGrid{TriggerC: []float64{1e6}})
		s.EmergencyC = 75
		s.Sensors = sensors
		return runCells(t, s)[0]
	}
	oracle, bad := run(nil), run([]scenario.Sensor{{Block: "L2"}})
	if bad.ObservedPeakC >= oracle.ObservedPeakC-5 {
		t.Fatalf("L2 sensor should badly under-report: %g vs oracle %g", bad.ObservedPeakC, oracle.ObservedPeakC)
	}
	if oracle.PeakC != bad.PeakC {
		t.Fatalf("true peak must not depend on sensing: %g vs %g", oracle.PeakC, bad.PeakC)
	}
}
