package core

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/hotspot"
)

var quickWL = WorkloadSpec{Cycles: 2_000_000, WarmupCycles: 1_000_000}

func TestRunWorkloadAll(t *testing.T) {
	for _, name := range []string{"gcc", "mcf", "art"} {
		spec := quickWL
		spec.Name = name
		tr, err := RunWorkload(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tr.TotalAverage() <= 5 {
			t.Fatalf("%s: implausibly low power %.1f W", name, tr.TotalAverage())
		}
	}
	bad := quickWL
	bad.Name = "nope"
	if _, err := RunWorkload(bad); err == nil {
		t.Fatal("unknown workload should fail")
	}
}

func TestParseDirection(t *testing.T) {
	for s, want := range map[string]hotspot.FlowDirection{
		"":              hotspot.Uniform,
		"uniform":       hotspot.Uniform,
		"left-to-right": hotspot.LeftToRight,
		"r2l":           hotspot.RightToLeft,
		"b2t":           hotspot.BottomToTop,
		"top-to-bottom": hotspot.TopToBottom,
	} {
		got, err := ParseDirection(s)
		if err != nil || got != want {
			t.Fatalf("ParseDirection(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseDirection("sideways"); err == nil {
		t.Fatal("bad direction should fail")
	}
}

func TestBuildModelKinds(t *testing.T) {
	fp := floorplan.EV6()
	air, err := BuildModel(fp, PackageSpec{Kind: "air-sink", Rconv: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if air.RconvEffective() != 0.5 {
		t.Fatalf("air Rconv %g", air.RconvEffective())
	}
	water, err := BuildModel(fp, PackageSpec{Kind: "water-sink"})
	if err != nil {
		t.Fatal(err)
	}
	if water.RconvEffective() != 0.05 {
		t.Fatalf("water Rconv %g", water.RconvEffective())
	}
	oil, err := BuildModel(fp, PackageSpec{Kind: "oil-silicon", Direction: "t2b", Rconv: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if oil.RconvEffective() != 1.0 {
		t.Fatalf("oil Rconv %g", oil.RconvEffective())
	}
	if _, err := BuildModel(fp, PackageSpec{Kind: "peltier"}); err == nil {
		t.Fatal("unknown kind should fail")
	}
	if _, err := BuildModel(fp, PackageSpec{Kind: "oil-silicon", Direction: "bad"}); err == nil {
		t.Fatal("bad direction should fail")
	}
}

func TestScenarioEndToEnd(t *testing.T) {
	s, err := NewScenario(quickWL, PackageSpec{Kind: "oil-silicon", Rconv: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := s.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	name, hot := ss.Hottest()
	if hot < 50 || name == "" {
		t.Fatalf("hottest %q %.1f °C implausible", name, hot)
	}
	pts, err := s.RunTransient()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 100 {
		t.Fatalf("only %d transient points", len(pts))
	}
	// Water cooling runs the same die far cooler than air.
	wat, err := NewScenario(quickWL, PackageSpec{Kind: "water-sink"})
	if err != nil {
		t.Fatal(err)
	}
	wss, err := wat.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	_, watHot := wss.Hottest()
	airSc, err := NewScenario(quickWL, PackageSpec{Kind: "air-sink", Rconv: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	ass, err := airSc.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	_, airHot := ass.Hottest()
	if watHot >= airHot {
		t.Fatalf("water %.1f should be cooler than air %.1f", watHot, airHot)
	}
}

// TestRunTransientMatchesRowReplay: a scenario transient is one
// backward-Euler step per trace row, bit for bit a Session.ReplayRows of
// the scenario's trace from its average-power steady state.
func TestRunTransientMatchesRowReplay(t *testing.T) {
	spec := quickWL
	spec.Name = "gcc"
	s, err := NewScenario(spec, PackageSpec{Kind: "oil-silicon", Rconv: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.RunTransient()
	if err != nil {
		t.Fatal(err)
	}
	ss, err := s.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Model.NewSession().ReplayRows(ss.Temps, s.Trace.Reader())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(want) != len(s.Trace.Rows)+1 {
		t.Fatalf("%d points, replay %d, trace %d rows", len(got), len(want), len(s.Trace.Rows))
	}
	for i := range want {
		if got[i].Time != want[i].Time {
			t.Fatalf("point %d: time %.17g vs %.17g", i, got[i].Time, want[i].Time)
		}
		for b := range want[i].BlockC {
			if got[i].BlockC[b] != want[i].BlockC[b] {
				t.Fatalf("point %d block %d: %.17g vs replay %.17g", i, b, got[i].BlockC[b], want[i].BlockC[b])
			}
		}
	}
}

func TestReconcileAirFromOil(t *testing.T) {
	// The §6 future-work chain: simulate an oil measurement with known
	// powers, reconcile, and check the air-sink prediction against the
	// direct air-sink solution.
	fp := floorplan.EV6()
	oil, err := BuildModel(fp, PackageSpec{Kind: "oil-silicon", Direction: "l2r"})
	if err != nil {
		t.Fatal(err)
	}
	air, err := BuildModel(fp, PackageSpec{Kind: "air-sink", Rconv: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]float64, fp.N())
	truth[fp.Index("IntReg")] = 2.0
	truth[fp.Index("Dcache")] = 3.0
	truth[fp.Index("L2")] = 6.0
	vec, err := oil.BlockPowerVector(truth)
	if err != nil {
		t.Fatal(err)
	}
	observed := oil.SteadyState(vec).BlocksC()

	res, err := ReconcileAirFromOil(oil, air, observed, truth)
	if err != nil {
		t.Fatal(err)
	}
	// Power recovery should be near-exact (same model family).
	for i := range truth {
		if math.Abs(res.InferredPowerW[i]-truth[i]) > 0.05 {
			t.Fatalf("power recovery block %d: %.3f vs %.3f", i, res.InferredPowerW[i], truth[i])
		}
	}
	// And therefore the air prediction should match the direct solve.
	if res.MaxErrorC > 0.5 {
		t.Fatalf("air-sink prediction off by %.2f °C", res.MaxErrorC)
	}
	// Mismatched floorplans are rejected.
	other, err := BuildModel(floorplan.UniformDie("die", 0.01, 0.01), PackageSpec{Kind: "oil-silicon"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReconcileAirFromOil(other, air, observed[:1], nil); err == nil {
		t.Fatal("floorplan mismatch should fail")
	}
}

func TestReconcileDirectionMatters(t *testing.T) {
	// Using a direction-blind oil model for the inversion step leaves a
	// systematic error in the reconciled air prediction — the §5.4 artifact
	// propagating into the §6 workflow.
	fp := floorplan.EV6()
	oilTrue, err := BuildModel(fp, PackageSpec{Kind: "oil-silicon", Direction: "t2b"})
	if err != nil {
		t.Fatal(err)
	}
	oilBlind, err := BuildModel(fp, PackageSpec{Kind: "oil-silicon", Direction: "uniform"})
	if err != nil {
		t.Fatal(err)
	}
	air, err := BuildModel(fp, PackageSpec{Kind: "air-sink", Rconv: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]float64, fp.N())
	truth[fp.Index("IntReg")] = 2.0
	truth[fp.Index("Dcache")] = 2.0
	vec, err := oilTrue.BlockPowerVector(truth)
	if err != nil {
		t.Fatal(err)
	}
	observed := oilTrue.SteadyState(vec).BlocksC()

	good, err := ReconcileAirFromOil(oilTrue, air, observed, truth)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := ReconcileAirFromOil(oilBlind, air, observed, truth)
	if err != nil {
		t.Fatal(err)
	}
	if bad.MaxErrorC <= good.MaxErrorC {
		t.Fatalf("direction-blind reconciliation should be worse: %.2f vs %.2f", bad.MaxErrorC, good.MaxErrorC)
	}
}
