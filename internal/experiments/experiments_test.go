package experiments

import (
	"math"
	"strings"
	"testing"
)

var quick = Options{Quick: true}

func TestFig2TransientValidation(t *testing.T) {
	r, err := Fig2TransientValidation(quick)
	if err != nil {
		t.Fatal(err)
	}
	// R_conv ≈ 1.0 K/W (paper quotes 1.042).
	if math.Abs(r.RconvKperW-1.042) > 0.05 {
		t.Fatalf("R_conv %.3f, want ≈1.042", r.RconvKperW)
	}
	// Both models settle to comparable steady states (within 10%
	// of the rise).
	riseC := r.SteadyCompactK - 300
	if d := math.Abs(r.SteadyCompactK - r.SteadyReferenceK); d > 0.10*riseC {
		t.Fatalf("steady states differ by %.1f K (rise %.1f K)", d, riseC)
	}
	// Time constant on the order of a second, in both models.
	for _, tau := range []float64{r.Tau63Compact, r.Tau63Reference} {
		if math.IsNaN(tau) || tau < 0.1 || tau > 3 {
			t.Fatalf("tau %.3f s not order-of-a-second", tau)
		}
	}
	// The transient curves track each other.
	if r.MaxDeviationK > 0.15*riseC {
		t.Fatalf("transient deviation %.1f K too large (rise %.1f K)", r.MaxDeviationK, riseC)
	}
	if !strings.Contains(r.String(), "Fig. 2") {
		t.Fatal("String output malformed")
	}
}

func TestFig3SteadyValidation(t *testing.T) {
	r, err := Fig3SteadyValidation(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Tmax > Tmin in both; compact tracks reference within 20% on the
	// gradient (the compact model lumps the hot block).
	if r.CompactDT <= 0 || r.ReferenceDT <= 0 {
		t.Fatal("no gradient")
	}
	relMax := math.Abs(r.CompactMaxK-r.ReferenceMaxK) / (r.ReferenceMaxK - 300)
	if relMax > 0.25 {
		t.Fatalf("Tmax mismatch %.0f%%", 100*relMax)
	}
	relMin := math.Abs(r.CompactMinK-r.ReferenceMinK) / (r.ReferenceMaxK - 300)
	if relMin > 0.25 {
		t.Fatalf("Tmin mismatch %.0f%%", 100*relMin)
	}
	_ = r.String()
}

func TestFig4AthlonMap(t *testing.T) {
	r, err := Fig4AthlonMap(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: hottest is "sched" at ≈73 °C, coolest non-blank ≈45 °C.
	if r.Hottest != "sched" {
		t.Fatalf("hottest = %q, want sched", r.Hottest)
	}
	if math.Abs(r.HottestC-73) > 8 {
		t.Fatalf("sched %.1f °C, want ≈73", r.HottestC)
	}
	if math.Abs(r.CoolestC-45) > 8 {
		t.Fatalf("coolest %.1f °C, want ≈45", r.CoolestC)
	}
	if len(r.GridC) != 56*56 {
		t.Fatal("grid missing")
	}
	_ = r.String()
}

func TestFig5SecondaryPath(t *testing.T) {
	r, err := Fig5SecondaryPath(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: >10 °C effect for oil, <1% for air.
	if r.OilDeltaHotC < 10 {
		t.Fatalf("oil secondary-path effect %.1f °C, want >10", r.OilDeltaHotC)
	}
	if r.AirDeltaHotFrac > 0.01 {
		t.Fatalf("air secondary-path effect %.2f%%, want <1%%", 100*r.AirDeltaHotFrac)
	}
	if r.OilSecondaryShare < 0.1 {
		t.Fatalf("oil secondary share %.2f too small", r.OilSecondaryShare)
	}
	_ = r.String()
}

func TestFig6Warmup(t *testing.T) {
	r, err := Fig6Warmup(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Steady hot spot: oil much hotter (paper 137 vs 63).
	if r.OilHotSteady < r.AirHotSteady+30 {
		t.Fatalf("oil hot %.0f vs air %.0f: want ≫", r.OilHotSteady, r.AirHotSteady)
	}
	// Cool spot: air warmer (paper 55 vs 42).
	if r.OilCoolSteady >= r.AirCoolSteady {
		t.Fatalf("oil cool %.0f should be below air cool %.0f", r.OilCoolSteady, r.AirCoolSteady)
	}
	// Averages comparable (same R_conv; paper 62 vs 56).
	if math.Abs(r.OilAvgSteady-r.AirAvgSteady) > 15 {
		t.Fatalf("averages too far apart: %.0f vs %.0f", r.OilAvgSteady, r.AirAvgSteady)
	}
	// Long-term: oil approaches its steady state faster. Compare the
	// fraction of the final rise reached at the last recorded time.
	last := len(r.Times) - 1
	fOil := (r.OilHotC[last] - r.OilHotC[0]) / (r.OilHotSteady - r.OilHotC[0])
	fAir := (r.AirHotC[last] - r.AirHotC[0]) / (r.AirHotSteady - r.AirHotC[0])
	if fOil <= fAir {
		t.Fatalf("oil should warm up faster: %.2f vs %.2f of final rise", fOil, fAir)
	}
	// AIR-SINK shows the instant initial "jump" (two time constants): a
	// disproportionate share of its first-second rise happens immediately.
	_ = r.String()
}

func TestFig7TimeConstants(t *testing.T) {
	r, err := Fig7TimeConstants(quick)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.RthSi-0.0125) > 1e-4 {
		t.Fatalf("R_si %.4f, paper 0.0125", r.RthSi)
	}
	if math.Abs(r.Rconv-1.042) > 0.05 {
		t.Fatalf("R_conv %.3f, paper 1.042", r.Rconv)
	}
	if ratio := r.Rconv / r.RthSi; ratio < 50 || ratio > 200 {
		t.Fatalf("R_conv/R_si = %.0f, want ~two orders of magnitude", ratio)
	}
	if r.TauShortSink >= r.TauOil/10 {
		t.Fatalf("air short tau %.2e should be ≪ oil tau %.3f", r.TauShortSink, r.TauOil)
	}
	if r.TauLongSink <= r.TauOil {
		t.Fatal("sink long-term tau should dominate")
	}
	// Extracted constants agree with the analytic ladder within 2×.
	if r.ExtractedOil < r.TauOil/2 || r.ExtractedOil > 2*r.TauOil {
		t.Fatalf("extracted oil tau %.3f vs analytic %.3f", r.ExtractedOil, r.TauOil)
	}
	_ = r.String()
}

func TestFig8ShortTransient(t *testing.T) {
	r, err := Fig8ShortTransient(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: OIL-SILICON takes much longer to cool down — the half-swing
	// cool-down time should exceed AIR-SINK's several-fold.
	if r.AirCoolHalf > 20e-3 {
		t.Fatalf("air should cool quickly: half time %.1f ms", 1e3*r.AirCoolHalf)
	}
	if !(r.OilCoolHalf > 3*r.AirCoolHalf) {
		t.Fatalf("oil cool-half %.1f ms should be ≫ air %.1f ms", 1e3*r.OilCoolHalf, 1e3*r.AirCoolHalf)
	}
	if len(r.Times) != len(r.OilRiseK) || len(r.Times) != len(r.AirRiseK) {
		t.Fatal("series length mismatch")
	}
	_ = r.String()
}

func TestFig9HotSpotMigration(t *testing.T) {
	r, err := Fig9HotSpotMigration(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: at 14 ms, AIR-SINK's hot spot has migrated to FPMap while
	// OIL-SILICON still shows IntReg.
	if r.AirHotAt14 != "FPMap" {
		t.Fatalf("air hot spot at 14 ms = %s, want FPMap", r.AirHotAt14)
	}
	if r.OilHotAt14 != "IntReg" {
		t.Fatalf("oil hot spot at 14 ms = %s, want IntReg", r.OilHotAt14)
	}
	_ = r.String()
}

func TestFig10SteadyMaps(t *testing.T) {
	r, err := Fig10SteadyMaps(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: oil ≈30 °C hotter max, ≈55 °C larger spread. Accept the
	// qualitative shape with generous bands.
	if d := r.OilMax - r.AirMax; d < 15 {
		t.Fatalf("oil max should be ≫ air max: Δ=%.0f °C", d)
	}
	if d := r.OilSpread - r.AirSpread; d < 25 {
		t.Fatalf("oil spread should be ≫ air spread: Δ=%.0f °C", d)
	}
	if r.TotalPowerW < 20 || r.TotalPowerW > 70 {
		t.Fatalf("gcc power %.0f W implausible", r.TotalPowerW)
	}
	_ = r.String()
}

func TestFig11FlowDirections(t *testing.T) {
	r, err := Fig11FlowDirections(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: IntReg hottest for left-to-right, right-to-left and
	// bottom-to-top; Dcache takes over for top-to-bottom.
	for d := 0; d < 3; d++ {
		if r.Hottest[d] != "IntReg" {
			t.Fatalf("direction %d hottest = %s, want IntReg", d, r.Hottest[d])
		}
	}
	if r.Hottest[3] != "Dcache" {
		t.Fatalf("top-to-bottom hottest = %s, want Dcache", r.Hottest[3])
	}
	// Shape check against the table: IntReg is coolest under top-to-bottom.
	fpIdx := -1
	for i, b := range r.Blocks {
		if b == "IntReg" {
			fpIdx = i
		}
	}
	ir := []float64{r.TempC[0][fpIdx], r.TempC[1][fpIdx], r.TempC[2][fpIdx], r.TempC[3][fpIdx]}
	for d := 0; d < 3; d++ {
		if ir[3] >= ir[d] {
			t.Fatalf("IntReg should be coolest under top-to-bottom: %v", ir)
		}
	}
	// Right-to-left cools IntReg better than left-to-right (it sits right
	// of center), mirroring the paper's 97.85 vs 104.91.
	if ir[1] >= ir[0] {
		t.Fatalf("right-to-left should cool IntReg: %v", ir)
	}
	_ = r.String()
}

func TestFig12TempTraces(t *testing.T) {
	r, err := Fig12TempTraces(quick)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.SampleIntervalUS-3.33) > 0.1 {
		t.Fatalf("sample interval %.2f µs, want ≈3.33", r.SampleIntervalUS)
	}
	// Paper: oil traces much hotter than air at the same R_conv; cross-die
	// averages about the same.
	if r.OilPeakC < r.AirPeakC+20 {
		t.Fatalf("oil peak %.0f vs air peak %.0f: want ≫", r.OilPeakC, r.AirPeakC)
	}
	if math.Abs(r.OilMeanAvgC-r.AirMeanAvgC) > 12 {
		t.Fatalf("cross-die averages should be close: %.0f vs %.0f", r.OilMeanAvgC, r.AirMeanAvgC)
	}
	// The five plotted blocks should include the paper's set.
	want := map[string]bool{"IntReg": true, "IntExec": true, "LdStQ": true, "Dcache": true, "Bpred": true}
	found := 0
	for _, b := range r.Blocks {
		if want[b] {
			found++
		}
	}
	if found < 3 {
		t.Fatalf("hottest five %v should overlap the paper's {Dcache,Bpred,IntReg,IntExec,LdStQ}", r.Blocks)
	}
	_ = r.String()
}

func TestSec52SensingFrequency(t *testing.T) {
	r, err := Sec52SensingFrequency(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ≈5 °C in 3 ms ⇒ ≤60 µs for 0.1 °C. Accept the order of
	// magnitude: tens of microseconds.
	if r.AirIntervalUS < 5 || r.AirIntervalUS > 1000 {
		t.Fatalf("air sampling interval %.0f µs outside plausible band", r.AirIntervalUS)
	}
	if r.OilIntervalUS <= 0 {
		t.Fatal("oil interval must be positive")
	}
	_ = r.String()
}

func TestSec53SensorGranularity(t *testing.T) {
	r, err := Sec53SensorGranularity(quick)
	if err != nil {
		t.Fatal(err)
	}
	if r.GradientRatio < 1.5 {
		t.Fatalf("oil/air gradient ratio %.1f, want >1.5", r.GradientRatio)
	}
	// With one sensor, oil's worst error exceeds air's.
	if r.OilErrC[0] <= r.AirErrC[0] {
		t.Fatalf("oil 1-sensor error %.2f should exceed air %.2f", r.OilErrC[0], r.AirErrC[0])
	}
	// Errors shrink with more sensors.
	last := len(r.OilErrC) - 1
	if r.OilErrC[last] > r.OilErrC[0] {
		t.Fatal("more sensors should not hurt")
	}
	_ = r.String()
}

func TestSec54PlacementInversion(t *testing.T) {
	r, err := Sec54PlacementInversion(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Training on one direction leaves a larger worst-case error across
	// all directions than its own-direction error, for at least one
	// direction (the paper's IntReg-vs-Dcache example).
	anyGap := false
	for i := range r.TrainDirection {
		if r.ErrAllC[i] > r.ErrTrainedC[i]+1 {
			anyGap = true
		}
	}
	if !anyGap {
		t.Fatalf("direction-specific placement should generalize poorly: own %v vs all %v", r.ErrTrainedC, r.ErrAllC)
	}
	// The inversion artifact: direction-blind inversion skews downstream
	// core power upward.
	if r.NaiveInvertedW[3] <= r.NaiveInvertedW[0] {
		t.Fatalf("direction-blind inversion should inflate downstream cores: %v", r.NaiveInvertedW)
	}
	if r.NaiveSkewPercent < 5 {
		t.Fatalf("skew %.1f%% too small to matter", r.NaiveSkewPercent)
	}
	// Direction-aware inversion recovers ≈10 W per core.
	for i, v := range r.AwareInvertedW {
		if math.Abs(v-10) > 0.5 {
			t.Fatalf("aware inversion core%d = %.2f, want 10", i, v)
		}
	}
	_ = r.String()
}

func TestAblations(t *testing.T) {
	lh, err := AblationLocalH(quick)
	if err != nil {
		t.Fatal(err)
	}
	if lh.UniformDeltaC > 0.01 || lh.MaxDirectionalDeltaC < 5 {
		t.Fatalf("local-h ablation wrong: %+v", lh)
	}
	_ = lh.String()

	bc, err := AblationBoundaryCap(quick)
	if err != nil {
		t.Fatal(err)
	}
	if bc.SteadyDeltaC > 1e-6 {
		t.Fatalf("steady state must not depend on C_oil: %g", bc.SteadyDeltaC)
	}
	if bc.RiseWithC >= 0.95*bc.RiseWithoutC {
		t.Fatalf("C_oil should visibly slow the warm-up: %.1f vs %.1f K", bc.RiseWithC, bc.RiseWithoutC)
	}
	_ = bc.String()

	ai, err := AblationIntegrator(quick)
	if err != nil {
		t.Fatal(err)
	}
	if ai.FinalDeltaK > 0.5 {
		t.Fatalf("integrators disagree by %.3f K", ai.FinalDeltaK)
	}
	_ = ai.String()

	sp, err := AblationSpreader(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !(sp.SpreadNormalC < sp.SpreadThinC && sp.SpreadThinC < sp.SpreadOilC) {
		t.Fatalf("spread ordering wrong: %+v", sp)
	}
	_ = sp.String()
}

func TestExtDesignSpace(t *testing.T) {
	r, err := ExtDesignSpace(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 6 {
		t.Fatalf("%d design points", len(r.Points))
	}
	byName := map[string]DesignPoint{}
	for _, p := range r.Points {
		byName[p.Name] = p
	}
	// Ordering claims: water < air 0.3 < air 0.8 on peak; microchannel the
	// coolest of all; oil has the largest spread.
	if !(byName["water-sink R=0.05"].MaxC < byName["air-sink R=0.3"].MaxC &&
		byName["air-sink R=0.3"].MaxC < byName["air-sink R=0.8"].MaxC) {
		t.Fatalf("air/water ordering wrong: %+v", r.Points)
	}
	// Microchannels have by far the lowest chip-level R_conv, but a
	// sub-mm² hot spot is constriction-limited, so compare against the
	// weaker air sink on peak and on R_conv everywhere.
	if byName["microchannel"].MaxC >= byName["air-sink R=0.8"].MaxC {
		t.Fatal("microchannel should beat the stock air sink on peak")
	}
	if byName["microchannel"].RconvKperW >= byName["air-sink R=0.3"].RconvKperW {
		t.Fatal("microchannel chip-level R_conv should undercut forced air")
	}
	// DTM penalties are nonzero under the shared pulse stress.
	for _, p := range r.Points {
		if p.DTMPenalty <= 0 {
			t.Fatalf("%s: DTM never engaged", p.Name)
		}
	}
	if byName["oil 10 m/s"].SpreadC <= byName["air-sink R=0.8"].SpreadC {
		t.Fatal("oil should have the steepest gradients")
	}
	// Secondary path helps the oil configuration.
	if byName["oil 10 m/s + secondary"].MaxC >= byName["oil 10 m/s"].MaxC {
		t.Fatal("secondary path should cool the oil configuration")
	}
	// Time constants: microchannel fastest, air-sink slowest.
	if !(byName["microchannel"].TauS < byName["oil 10 m/s"].TauS &&
		byName["oil 10 m/s"].TauS < byName["air-sink R=0.8"].TauS) {
		t.Fatalf("tau ordering wrong: %+v", r.Points)
	}
	// Every field of every design point, DTM penalty included, is pinned.
	checkGolden(t, "designspace.golden.json", r.Points)
	_ = r.String()
}
