package scenario

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/hotspot"
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
	run := func(s *Spec) Metrics {
		c, err := Compile(s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		r := c.RunGrid(nil, 1, nil)
		if r[0].Err != nil {
			t.Fatal(r[0].Err)
		}
		return r[0].Metrics
	}
	oracle := run(mk(""))
	bad := run(mk("L2"))
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
