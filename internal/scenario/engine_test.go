package scenario

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/hotspot"
	"repro/internal/trace"
)

// sweepSpec is the acceptance-criteria scenario: a bursty pulse workload on
// IntReg swept over ≥12 policy-grid cells across AIR-SINK and OIL-SILICON at
// the same R_conv. triggerC/emergencyC are filled by the caller (they sit
// relative to the probed steady baseline).
func sweepSpec(triggers []float64, emergencyC float64) *Spec {
	return &Spec{
		Name:          "dtm-sweep",
		Interval:      1e-3,
		EmergencyC:    emergencyC,
		InitialSteady: true,
		Phases: []Phase{{
			Name:     "burst",
			Duration: 0.2,
			Pulse:    &PulseSpec{Block: "IntReg", PeakW: 3, OnS: 30e-3, OffS: 70e-3},
		}},
		Packages: []PackageSpec{
			{Label: "air", Kind: "air-sink", Rconv: 1.0},
			{Label: "oil", Kind: "oil-silicon", Rconv: 1.0},
		},
		Policies: PolicyGrid{
			TriggerC:        triggers,
			EngageDurationS: []float64{5e-3, 20e-3},
			PerfFactor:      []float64{0.5},
		},
	}
}

// baselines compiles a 2-cell never-triggering grid and returns each
// package's initial-steady hottest temperature.
func baselines(t *testing.T) (airC, oilC float64) {
	t.Helper()
	c, err := Compile(sweepSpec([]float64{1e6}, 1e6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := c.RunGrid(nil, 1, nil)
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		switch r.Cell.Package {
		case "air":
			airC = r.Metrics.InitialHotC
		case "oil":
			oilC = r.Metrics.InitialHotC
		}
	}
	return airC, oilC
}

// cellCalls is an onCell hook recording every call by cell index. RunGrid
// serializes onCell, so it needs no lock (the race detector checks that).
type cellCalls map[int][]CellResult

func (cc cellCalls) onCell(cr CellResult) { cc[cr.Cell.Index] = append(cc[cr.Cell.Index], cr) }

// check asserts exactly one onCell call per cell, equal to the result
// RunGrid returned for it.
func (cc cellCalls) check(t *testing.T, res []CellResult) {
	t.Helper()
	if len(cc) != len(res) {
		t.Fatalf("onCell saw %d cells, RunGrid returned %d", len(cc), len(res))
	}
	for i, want := range res {
		got := cc[i]
		if len(got) != 1 {
			t.Fatalf("cell %d: onCell called %d times, want 1", i, len(got))
		}
		if !reflect.DeepEqual(got[0], want) {
			t.Fatalf("cell %d: onCell saw %+v, RunGrid returned %+v", i, got[0], want)
		}
	}
}

// TestGridWorkerParity: RunGrid at workers=4 is bit-identical to workers=1
// (the acceptance criterion): cells are fully independent and worker count
// only changes scheduling.
func TestGridWorkerParity(t *testing.T) {
	air, oil := baselines(t)
	base := max(air, oil)
	spec := sweepSpec([]float64{base + 1, base + 2, base + 3}, base+4)
	c, err := Compile(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(c.Cells()); n != 12 {
		t.Fatalf("want 12 grid cells, got %d", n)
	}
	run := func(workers int) []CellResult {
		calls := cellCalls{}
		res := c.RunGrid(nil, workers, calls.onCell)
		calls.check(t, res)
		return res
	}
	serial := run(1)
	parallel := run(4)
	for i := range serial {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("cell %d errors: %v / %v", i, serial[i].Err, parallel[i].Err)
		}
		if !reflect.DeepEqual(serial[i].Metrics, parallel[i].Metrics) {
			t.Fatalf("cell %d diverges between workers=1 and workers=4:\n  %+v\n  %+v",
				i, serial[i].Metrics, parallel[i].Metrics)
		}
	}
	// And a re-run is reproducible outright.
	again := run(3)
	for i := range serial {
		if !reflect.DeepEqual(serial[i].Metrics, again[i].Metrics) {
			t.Fatalf("cell %d not reproducible across runs", i)
		}
	}
}

// TestAirOilEngagementDiffers reproduces the paper's §5.1 qualitative
// result: the identical DTM policy engages differently under AIR-SINK and
// OIL-SILICON at the same R_conv, because the oil configuration swings
// faster on bursts and recovers more slowly.
func TestAirOilEngagementDiffers(t *testing.T) {
	air, oil := baselines(t)
	base := max(air, oil)
	spec := sweepSpec([]float64{base + 1, base + 2, base + 3}, base+2.5)
	c, err := Compile(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := c.RunGrid(nil, 0, nil)
	byPkg := map[string][]CellResult{}
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		byPkg[r.Cell.Package] = append(byPkg[r.Cell.Package], r)
	}
	if len(byPkg["air"]) != 6 || len(byPkg["oil"]) != 6 {
		t.Fatalf("want 6 cells per package, got %d air / %d oil", len(byPkg["air"]), len(byPkg["oil"]))
	}
	var differing int
	for i := range byPkg["air"] {
		a, o := byPkg["air"][i], byPkg["oil"][i]
		if a.Cell.Policy != o.Cell.Policy {
			t.Fatalf("cell %d: policies not aligned across packages", i)
		}
		t.Logf("trigger %.1f engage %4.0fms | air: duty %.3f engagements %2d coverage %.2f peak %.1f | oil: duty %.3f engagements %2d coverage %.2f peak %.1f",
			a.Cell.Policy.TriggerC, a.Cell.Policy.EngageDuration*1e3,
			a.Metrics.DutyCycle, a.Metrics.Engagements, a.Metrics.ViolationCoverage, a.Metrics.PeakC,
			o.Metrics.DutyCycle, o.Metrics.Engagements, o.Metrics.ViolationCoverage, o.Metrics.PeakC)
		if a.Metrics.DutyCycle != o.Metrics.DutyCycle || a.Metrics.Engagements != o.Metrics.Engagements {
			differing++
		}
	}
	if differing < 4 {
		t.Fatalf("identical policies should engage differently across cooling configs; only %d/6 cells differ", differing)
	}
	// The aggregate §5.1 direction: the oil bath swings harder on the same
	// burst, so across the grid it spends more total time throttled.
	var airDuty, oilDuty float64
	for i := range byPkg["air"] {
		airDuty += byPkg["air"][i].Metrics.DutyCycle
		oilDuty += byPkg["oil"][i].Metrics.DutyCycle
	}
	t.Logf("total duty: air %.3f oil %.3f", airDuty, oilDuty)
	if airDuty == oilDuty {
		t.Fatal("aggregate engagement identical across packages")
	}
}

// TestDTMReducesPeak: an engaging policy caps the peak temperature relative
// to a never-triggering one and pays for it in performance. Each package
// gets a trigger relative to its own steady baseline (the AIR-SINK baseline
// sits well below OIL-SILICON's at the same R_conv).
func TestDTMReducesPeak(t *testing.T) {
	airBase, oilBase := baselines(t)
	for pkg, base := range map[string]float64{"air": airBase, "oil": oilBase} {
		spec := sweepSpec([]float64{base + 0.5, 1e6}, base+2)
		spec.Policies.EngageDurationS = []float64{20e-3}
		for _, p := range spec.Packages {
			if p.Label == pkg {
				spec.Packages = []PackageSpec{p}
			}
		}
		c, err := Compile(spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res := c.RunGrid(context.Background(), 2, nil)
		on, off := res[0], res[1]
		if on.Err != nil || off.Err != nil {
			t.Fatal(on.Err, off.Err)
		}
		if off.Metrics.EngagedS != 0 || off.Metrics.PerfPenalty != 0 {
			t.Fatalf("%s: disabled policy must not engage: %+v", pkg, off.Metrics)
		}
		if on.Metrics.EngagedS == 0 {
			t.Fatalf("%s: active policy never engaged", pkg)
		}
		if on.Metrics.PeakC >= off.Metrics.PeakC {
			t.Fatalf("%s: DTM should reduce peak: %.2f vs %.2f", pkg, on.Metrics.PeakC, off.Metrics.PeakC)
		}
		if on.Metrics.PerfPenalty <= 0 {
			t.Fatalf("%s: throttling must cost performance", pkg)
		}
	}
}

// TestMisplacedSensorLowersCoverage: a sensor on a cool block misses
// emergencies the oracle catches (§5.3/§5.4) — violation coverage drops.
func TestMisplacedSensorLowersCoverage(t *testing.T) {
	air, oil := baselines(t)
	base := max(air, oil)
	mk := func(block string) *Spec {
		s := sweepSpec([]float64{base + 0.5}, base+1)
		s.Packages = s.Packages[1:] // oil only: the steeper gradients
		s.Policies.EngageDurationS = []float64{5e-3}
		if block != "" {
			s.Sensors = []Sensor{{Block: block}}
		}
		return s
	}
	oracle := runCells(t, mk(""))[0]
	bad := runCells(t, mk("L2"))[0]
	if oracle.ViolationS == 0 {
		t.Skip("burst too cool to violate in this configuration")
	}
	t.Logf("oracle: violations %.3fs coverage %.2f | L2 sensor: violations %.3fs coverage %.2f",
		oracle.ViolationS, oracle.ViolationCoverage, bad.ViolationS, bad.ViolationCoverage)
	if bad.ViolationCoverage >= oracle.ViolationCoverage {
		t.Fatalf("misplaced sensor should lower violation coverage: %.3f vs oracle %.3f",
			bad.ViolationCoverage, oracle.ViolationCoverage)
	}
	if bad.ObservedPeakC >= oracle.ObservedPeakC {
		t.Fatal("L2 sensor should under-report the peak")
	}
}

// burstSpec is one closed loop over a trace phase: ten periods of 3 W
// bursts on IntReg, onS on and offS off, one row per control interval, on
// OIL-SILICON at R_conv 1 from the average power's steady state. Unthrottled
// at 30/70 ms it starts at 70 °C and peaks near 98 °C.
func burstSpec(t *testing.T, onS, offS, interval float64, policies PolicyGrid) *Spec {
	t.Helper()
	tr, err := trace.PulseTrain(floorplan.EV6().Names(), "IntReg", 3.0, onS, offS, interval, 10)
	if err != nil {
		t.Fatal(err)
	}
	return &Spec{
		Interval:      interval,
		EmergencyC:    1000,
		InitialSteady: true,
		Phases: []Phase{{
			Name:     "burst",
			Duration: tr.Duration(),
			Trace:    &TraceSpec{Names: tr.Names, Interval: tr.Interval, Rows: tr.Rows},
		}},
		Packages: []PackageSpec{{Kind: "oil-silicon", Rconv: 1}},
		Policies: policies,
	}
}

// runCells compiles spec and runs its grid serially, failing on any error.
func runCells(t *testing.T, spec *Spec) []Metrics {
	t.Helper()
	c, err := Compile(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out []Metrics
	for _, r := range c.RunGrid(nil, 1, nil) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		out = append(out, r.Metrics)
	}
	return out
}

// TestViolationAccounting: against a 60 °C limit the unthrottled burst
// violates, and an aggressive policy (trigger 55 °C, 50 ms engagements at a
// quarter of full speed) cuts the violation time.
func TestViolationAccounting(t *testing.T) {
	s := burstSpec(t, 30e-3, 70e-3, 1e-3, PolicyGrid{
		TriggerC:        []float64{55, 1e6},
		EngageDurationS: []float64{50e-3},
		PerfFactor:      []float64{0.25},
	})
	s.EmergencyC = 60
	m := runCells(t, s)
	on, off := m[0], m[1]
	if off.ViolationS == 0 {
		t.Fatal("the unthrottled burst should violate a 60 °C limit")
	}
	if on.ViolationS >= off.ViolationS {
		t.Fatalf("DTM should reduce violation time: %g vs %g", on.ViolationS, off.ViolationS)
	}
}

// TestSensorOffsetShiftsTriggering: a sensor reading 8 °C low engages less
// and observes a lower peak.
func TestSensorOffsetShiftsTriggering(t *testing.T) {
	run := func(offsetC float64) Metrics {
		s := burstSpec(t, 30e-3, 70e-3, 1e-3, PolicyGrid{TriggerC: []float64{58}})
		s.Sensors = []Sensor{{Block: "IntReg", OffsetC: offsetC}}
		return runCells(t, s)[0]
	}
	exact, low := run(0), run(-8)
	if low.EngagedS > exact.EngagedS {
		t.Fatalf("under-reading sensor should engage less: %g vs %g", low.EngagedS, exact.EngagedS)
	}
	if low.ObservedPeakC >= exact.ObservedPeakC {
		t.Fatal("offset must shift observations")
	}
}

// TestGridNonIntegerSampleRatio: on 1e-4 s control steps a 3.3e-4 s sampling
// interval behaves exactly like the 3.0e-4 s it rounds to, and 3.5e-4 s
// exactly like 4.0e-4 s (the Controller's round-half-up contract), instead
// of drifting between 3- and 4-step gaps; the two schedules differ.
func TestGridNonIntegerSampleRatio(t *testing.T) {
	m := runCells(t, burstSpec(t, 3e-3, 7e-3, 1e-4, PolicyGrid{
		TriggerC:        []float64{55},
		EngageDurationS: []float64{2e-3},
		SampleIntervalS: []float64{3.0e-4, 3.3e-4, 3.5e-4, 4.0e-4},
	}))
	if m[1] != m[0] {
		t.Fatalf("3.3e-4 s sampling should equal the rounded 3.0e-4 s schedule:\n got %+v\nwant %+v", m[1], m[0])
	}
	if m[2] != m[3] {
		t.Fatalf("3.5e-4 s sampling should round half-up to 4 steps:\n got %+v\nwant %+v", m[2], m[3])
	}
	if m[1] == m[2] {
		t.Fatal("3- and 4-step sampling schedules should differ")
	}
}

// TestWorkloadClosedLoop: throttling a live uarch phase reduces committed
// instructions against the nominal baseline — feedback an offline trace
// replay cannot represent — and the leakage feedback knob changes the
// thermals.
func TestWorkloadClosedLoop(t *testing.T) {
	mk := func(disableLeak bool) *Spec {
		return &Spec{
			Interval:      1e-3,
			EmergencyC:    200,
			InitialSteady: true,
			Power:         &PowerSpec{ClockHz: 2e7}, // 20k cycles per control step
			Phases:        []Phase{{Duration: 0.05, Workload: "gcc"}},
			Packages:      []PackageSpec{{Kind: "oil-silicon", Rconv: 1.0}},
			Policies: PolicyGrid{
				TriggerC:        []float64{0.1, 1e6}, // always-on vs never
				EngageDurationS: []float64{10e-3},
				PerfFactor:      []float64{0.5},
				Actuators:       []string{"fetch-gate", "dvfs"},
			},
			DisableLeakageFeedback: disableLeak,
		}
	}
	c, err := Compile(mk(false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := c.RunGrid(nil, 2, nil)
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	fetch, dvfs, offFetch := res[0], res[1], res[2]
	if offFetch.Metrics.Committed == 0 {
		t.Fatal("nominal cell committed nothing")
	}
	if fetch.Metrics.Committed >= offFetch.Metrics.Committed {
		t.Fatalf("fetch gating must cut committed instructions: %d vs nominal %d",
			fetch.Metrics.Committed, offFetch.Metrics.Committed)
	}
	if p := fetch.Metrics.PerfPenalty; p < 0.2 || p > 0.8 {
		t.Fatalf("always-on fetch gate at factor 0.5 should cost ≈half throughput, got %.3f", p)
	}
	if offFetch.Metrics.PerfPenalty != 0 {
		t.Fatalf("nominal cell should have zero penalty, got %g", offFetch.Metrics.PerfPenalty)
	}
	// DVFS at the same factor cuts voltage too: cooler than fetch gating.
	if dvfs.Metrics.FinalHotC >= fetch.Metrics.FinalHotC {
		t.Fatalf("DVFS should run cooler than fetch gating: %.2f vs %.2f",
			dvfs.Metrics.FinalHotC, fetch.Metrics.FinalHotC)
	}
	// Leakage feedback alters the trajectory.
	c2, err := Compile(mk(true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res2 := c2.RunGrid(nil, 1, nil)
	if res2[2].Err != nil {
		t.Fatal(res2[2].Err)
	}
	if res2[2].Metrics.FinalHotC == offFetch.Metrics.FinalHotC {
		t.Fatal("disabling leakage feedback should change the thermal trajectory")
	}
}

// TestRunGridCancellation: a cancelled context aborts unfinished cells with
// a ctx-attributed error instead of hanging.
func TestRunGridCancellation(t *testing.T) {
	spec := sweepSpec([]float64{1e6}, 1e6)
	c, err := Compile(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := cellCalls{}
	res := c.RunGrid(ctx, 1, calls.onCell)
	calls.check(t, res)
	for _, r := range res {
		if r.Err == nil {
			t.Fatal("cancelled run should error every cell")
		}
	}
}

// TestModelResolverIsUsed: Compile resolves models through Options.Models
// exactly once per distinct package fingerprint.
func TestModelResolverIsUsed(t *testing.T) {
	spec := sweepSpec([]float64{1e6}, 1e6)
	spec.Packages = append(spec.Packages, spec.Packages[0]) // duplicate air
	calls := 0
	_, err := Compile(spec, Options{Models: func(cfg hotspot.Config) (*hotspot.Model, error) {
		calls++
		return hotspot.New(cfg)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("want one resolve per distinct fingerprint (2), got %d", calls)
	}
}
