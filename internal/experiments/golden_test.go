package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/hotspot"
)

// updateGolden regenerates the committed fixtures:
//
//	go test ./internal/experiments -run TestGolden -update
var updateGolden = flag.Bool("update", false, "rewrite golden fixtures under testdata/")

// goldenRelTol is the allowed relative drift against the committed
// fixtures. It is deliberately far below physical accuracy: the golden
// suite exists to catch solver refactors silently changing the numerics,
// not to re-validate the physics.
const goldenRelTol = 1e-9

// checkGolden compares got against the committed fixture (or rewrites it
// with -update). Comparison happens on the JSON-decoded form, so the
// fixture's own round-trip is the reference representation.
func checkGolden(t *testing.T, name string, got any) {
	t.Helper()
	path := filepath.Join("testdata", name)
	raw, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(raw))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture %s (generate with: go test ./internal/experiments -run TestGolden -update): %v", path, err)
	}
	var wantV, gotV any
	if err := json.Unmarshal(want, &wantV); err != nil {
		t.Fatalf("corrupt fixture %s: %v", path, err)
	}
	if err := json.Unmarshal(raw, &gotV); err != nil {
		t.Fatal(err)
	}
	diffGolden(t, name, wantV, gotV)
}

// diffGolden walks two decoded JSON trees and fails on any structural
// difference or numeric drift beyond goldenRelTol.
func diffGolden(t *testing.T, path string, want, got any) {
	t.Helper()
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok || len(g) != len(w) {
			t.Fatalf("%s: object shape changed", path)
		}
		for k, wv := range w {
			gv, ok := g[k]
			if !ok {
				t.Fatalf("%s.%s: missing", path, k)
			}
			diffGolden(t, path+"."+k, wv, gv)
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			t.Fatalf("%s: array length changed (%d → %d)", path, len(w), lenOf(got))
		}
		for i := range w {
			diffGolden(t, fmt.Sprintf("%s[%d]", path, i), w[i], g[i])
		}
	case float64:
		g, ok := got.(float64)
		if !ok {
			t.Fatalf("%s: type changed", path)
		}
		denom := math.Max(1, math.Abs(w))
		if math.Abs(g-w) > goldenRelTol*denom {
			t.Fatalf("%s: drifted %.17g → %.17g (rel %.3g, tol %g)", path, w, g,
				math.Abs(g-w)/denom, goldenRelTol)
		}
	default:
		if want != got {
			t.Fatalf("%s: %v → %v", path, want, got)
		}
	}
}

func lenOf(v any) int {
	if a, ok := v.([]any); ok {
		return len(a)
	}
	return -1
}

// goldenEV6Power is a fixed, hand-written power map (W) so the steady
// golden depends only on the thermal solver, not on the uarch/power
// pipeline.
func goldenEV6Power() map[string]float64 {
	return map[string]float64{
		"Icache": 8.5, "Dcache": 12.1, "Bpred": 2.9, "DTB": 0.9,
		"FPAdd": 2.4, "FPReg": 1.1, "FPMul": 1.6, "FPMap": 0.4,
		"IntMap": 1.2, "IntQ": 1.0, "IntReg": 4.3, "IntExec": 7.8,
		"FPQ": 0.3, "LdStQ": 3.7, "ITB": 0.4, "L2_left": 3.0,
		"L2": 6.0, "L2_right": 3.0,
	}
}

// TestGoldenEV6Steady pins the EV6 steady-state temperatures for both
// packages (plus the secondary-path oil variant) under a fixed power map.
func TestGoldenEV6Steady(t *testing.T) {
	type fixture struct {
		PowerW             map[string]float64 `json:"power_w"`
		OilBlockC          map[string]float64 `json:"oil_block_c"`
		AirBlockC          map[string]float64 `json:"air_block_c"`
		OilSecondaryBlockC map[string]float64 `json:"oil_secondary_block_c"`
	}
	power := goldenEV6Power()
	solve := func(m *hotspot.Model) map[string]float64 {
		vec, err := m.PowerVector(power)
		if err != nil {
			t.Fatal(err)
		}
		return blockCMap(m, m.SteadyState(vec))
	}
	oil, err := evOil(hotspot.Uniform, 1.0, false, fig12AmbientK)
	if err != nil {
		t.Fatal(err)
	}
	air, err := evAir(1.0, false, fig12AmbientK)
	if err != nil {
		t.Fatal(err)
	}
	oilSec, err := evOil(hotspot.LeftToRight, 0, true, fig12AmbientK)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ev6_steady.golden.json", fixture{
		PowerW:             power,
		OilBlockC:          solve(oil),
		AirBlockC:          solve(air),
		OilSecondaryBlockC: solve(oilSec),
	})
}

// TestGoldenFig8 pins the short-term pulse response series (trace-driven
// transient over the batched sweep path).
func TestGoldenFig8(t *testing.T) {
	r, err := Fig8ShortTransient(quick)
	if err != nil {
		t.Fatal(err)
	}
	type fixture struct {
		Times    []float64 `json:"times_s"`
		OilRiseK []float64 `json:"oil_rise_k"`
		AirRiseK []float64 `json:"air_rise_k"`
		OilSwing float64   `json:"oil_swing_k"`
		AirSwing float64   `json:"air_swing_k"`
	}
	checkGolden(t, "fig8.golden.json", fixture{
		Times:    r.Times,
		OilRiseK: r.OilRiseK,
		AirRiseK: r.AirRiseK,
		OilSwing: r.OilSwing,
		AirSwing: r.AirSwing,
	})
}

// TestGoldenFig12 pins the trace-driven co-simulation (uarch → power →
// thermal) for both packages: subsampled temperature series of the plotted
// blocks plus the summary statistics.
func TestGoldenFig12(t *testing.T) {
	r, err := Fig12TempTraces(quick)
	if err != nil {
		t.Fatal(err)
	}
	const stride = 100
	sub := func(s []float64) []float64 {
		var out []float64
		for i := 0; i < len(s); i += stride {
			out = append(out, s[i])
		}
		return append(out, s[len(s)-1])
	}
	type fixture struct {
		Blocks      []string             `json:"blocks"`
		TimesUS     []float64            `json:"times_us"`
		OilC        map[string][]float64 `json:"oil_c"`
		AirC        map[string][]float64 `json:"air_c"`
		OilPeakC    float64              `json:"oil_peak_c"`
		AirPeakC    float64              `json:"air_peak_c"`
		AirRise3ms  float64              `json:"air_rise_3ms"`
		OilRise3ms  float64              `json:"oil_rise_3ms"`
		OilMeanAvgC float64              `json:"oil_mean_avg_c"`
		AirMeanAvgC float64              `json:"air_mean_avg_c"`
	}
	fx := fixture{
		Blocks:      r.Blocks,
		TimesUS:     sub(r.TimesUS),
		OilC:        map[string][]float64{},
		AirC:        map[string][]float64{},
		OilPeakC:    r.OilPeakC,
		AirPeakC:    r.AirPeakC,
		AirRise3ms:  r.AirRise3ms,
		OilRise3ms:  r.OilRise3ms,
		OilMeanAvgC: r.OilMeanAvgC,
		AirMeanAvgC: r.AirMeanAvgC,
	}
	for _, b := range r.Blocks {
		fx.OilC[b] = sub(r.OilC[b])
		fx.AirC[b] = sub(r.AirC[b])
	}
	checkGolden(t, "fig12.golden.json", fx)
}

// TestFig12MatchesRowReplay: Fig. 12 applies each trace row for exactly
// one step. Both packages' plotted series and the time stamps equal a
// Session.ReplayRows of the same gcc trace from the same average-power
// steady state, bit for bit.
func TestFig12MatchesRowReplay(t *testing.T) {
	r, err := Fig12TempTraces(quick)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.RunWorkload(core.WorkloadSpec{Cycles: 20_000_000, WarmupCycles: 3_000_000}) // Fig12TempTraces' quick run
	if err != nil {
		t.Fatal(err)
	}
	oil, err := evOil(hotspot.Uniform, 0.3, false, fig12AmbientK)
	if err != nil {
		t.Fatal(err)
	}
	air, err := evAir(0.3, false, fig12AmbientK)
	if err != nil {
		t.Fatal(err)
	}
	fp := oil.Floorplan()
	for _, pkg := range []struct {
		m      *hotspot.Model
		series map[string][]float64
	}{{oil, r.OilC}, {air, r.AirC}} {
		pAvg, err := pkg.m.PowerVector(avgPowerMap(tr))
		if err != nil {
			t.Fatal(err)
		}
		pts, err := pkg.m.NewSession().ReplayRows(pkg.m.SteadyState(pAvg).Temps, tr.Reader())
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != len(r.TimesUS) {
			t.Fatalf("%v: %d points, Fig. 12 has %d", pkg.m.Config().Package, len(pts), len(r.TimesUS))
		}
		for i, p := range pts {
			if p.Time*1e6 != r.TimesUS[i] {
				t.Fatalf("point %d: time %.17g µs vs replay %.17g", i, r.TimesUS[i], p.Time*1e6)
			}
			for _, b := range r.Blocks {
				if got, want := pkg.series[b][i], p.BlockC[fp.Index(b)]; got != want {
					t.Fatalf("%v %s point %d: %.17g vs replay %.17g", pkg.m.Config().Package, b, i, got, want)
				}
			}
		}
	}
}
