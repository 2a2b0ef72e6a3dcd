package experiments

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/floorplan"
	"repro/internal/hotspot"
	"repro/internal/materials"
	"repro/internal/trace"
)

// warmupAmbientK is the ambient used by the controlled transient
// experiments (Figs. 6-9), chosen to match the paper's plotted baselines
// (~22 °C starting temperature in Fig. 6).
const warmupAmbientK = 22 + materials.KelvinOffset

// Fig6Result holds the warm-up transients of the hottest and coolest blocks
// under both packages at identical R_conv = 1.0 K/W (the paper's Fig. 6:
// 2.0 W/mm² on one small block for ~6 s).
type Fig6Result struct {
	Times []float64
	// Hot/Cool series per package (°C).
	OilHotC, AirHotC   []float64
	OilCoolC, AirCoolC []float64
	// Steady-state temperatures (°C).
	OilHotSteady, AirHotSteady   float64
	OilCoolSteady, AirCoolSteady float64
	OilAvgSteady, AirAvgSteady   float64
	HotBlock, CoolBlock          string
}

// Fig6Warmup runs the warm-up comparison.
func Fig6Warmup(opt Options) (*Fig6Result, error) {
	duration := 6.0
	dt := 0.01
	if opt.Quick {
		duration, dt = 3.0, 0.02
	}
	fp := floorplan.EV6()
	// The paper applies 2.0 W/mm² to "one hot block that occupies a small
	// area of the die". A cache-scale block reproduces its time constants
	// (R_conv per block in the tens of K/W); we use Dcache.
	hot := "Dcache"
	hotArea := fp.Blocks[fp.Index(hot)].Area()
	watts := 2.0e6 * hotArea // 2.0 W/mm²
	powerMap := map[string]float64{hot: watts}

	oil, err := evOil(hotspot.Uniform, 1.0, false, warmupAmbientK)
	if err != nil {
		return nil, err
	}
	air, err := evAir(1.0, false, warmupAmbientK)
	if err != nil {
		return nil, err
	}
	pOil, err := oil.PowerVector(powerMap)
	if err != nil {
		return nil, err
	}
	pAir, err := air.PowerVector(powerMap)
	if err != nil {
		return nil, err
	}
	// The coolest block at steady state (same for reporting both).
	oilSS := oil.SteadyState(pOil)
	airSS := air.SteadyState(pAir)
	cool, _ := oilSS.Coolest()

	res := &Fig6Result{HotBlock: hot, CoolBlock: cool}
	res.OilHotSteady = oilSS.BlockC(hot)
	res.AirHotSteady = airSS.BlockC(hot)
	res.OilCoolSteady = oilSS.BlockC(cool)
	res.AirCoolSteady = airSS.BlockC(cool)
	res.OilAvgSteady = oilSS.AverageC()
	res.AirAvgSteady = airSS.AverageC()

	so := oil.AmbientState()
	sa := air.AmbientState()
	record := func(t float64) {
		res.Times = append(res.Times, t)
		res.OilHotC = append(res.OilHotC, oil.NewResult(so).BlockC(hot))
		res.AirHotC = append(res.AirHotC, air.NewResult(sa).BlockC(hot))
		res.OilCoolC = append(res.OilCoolC, oil.NewResult(so).BlockC(cool))
		res.AirCoolC = append(res.AirCoolC, air.NewResult(sa).BlockC(cool))
	}
	record(0)
	for t := 0.0; t < duration-1e-12; t += dt {
		if err := oil.Transient(so, pOil, dt, dt/2); err != nil {
			return nil, err
		}
		if err := air.Transient(sa, pAir, dt, dt/2); err != nil {
			return nil, err
		}
		record(t + dt)
	}
	return res, nil
}

func (r *Fig6Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig. 6 — warm-up transients, same R_conv = 1.0 K/W, 2.0 W/mm² on " + r.HotBlock + "\n")
	fmt.Fprintf(&sb, "steady hot spot:  OIL %.0f °C vs AIR %.0f °C (paper: 137 vs 63)\n", r.OilHotSteady, r.AirHotSteady)
	fmt.Fprintf(&sb, "steady cool spot (%s): OIL %.0f °C vs AIR %.0f °C (paper: 42 vs 55)\n", r.CoolBlock, r.OilCoolSteady, r.AirCoolSteady)
	fmt.Fprintf(&sb, "steady cross-die average: OIL %.0f °C vs AIR %.0f °C (paper: 62 vs 56)\n", r.OilAvgSteady, r.AirAvgSteady)
	rows := make([][]string, 0, 14)
	stride := len(r.Times) / 12
	if stride == 0 {
		stride = 1
	}
	for i := 0; i < len(r.Times); i += stride {
		rows = append(rows, []string{f2(r.Times[i]),
			f1(r.OilHotC[i]), f1(r.AirHotC[i]),
			f1(r.OilCoolC[i]), f1(r.AirCoolC[i])})
	}
	sb.WriteString(table([]string{"t(s)", "oil hot", "air hot", "oil cool", "air cool"}, rows))
	return sb.String()
}

// Fig7Result reports the equivalent-circuit time constants of §4.1.2: the
// short-term constant of AIR-SINK is R_si·C_si, that of OIL-SILICON is
// R_conv·(C_si+C_oil) ≈ R_conv·C_si, and their ratio is R_conv/R_si.
type Fig7Result struct {
	RthSi, Rconv           float64 // K/W (die-level)
	CthSi, CthOil, CthSink float64 // J/K
	TauShortSink           float64 // R_si·C_si
	TauOil                 float64 // R_conv·(C_si + C_oil)
	TauLongSink            float64 // R_conv·C_sink
	// Extracted dominant constants from the assembled networks.
	ExtractedOil, ExtractedSink float64
}

// Fig7TimeConstants evaluates the analytic circuit constants for the
// validation die and compares them with the assembled networks' dominant
// time constants.
func Fig7TimeConstants(opt Options) (*Fig7Result, error) {
	const side, thick = 0.020, 0.5e-3
	area := side * side
	flow := materials.LaminarFlow{Fluid: materials.MineralOil, Velocity: 10, PlateLen: side}
	r := &Fig7Result{
		RthSi: materials.VerticalResistance(materials.Silicon, thick, area),
		Rconv: flow.ConvectionResistance(area),
		CthSi: materials.SlabCapacitance(materials.Silicon, thick, area),
	}
	r.CthOil = flow.ConvectionCapacitance(area)
	r.CthSink = materials.SlabCapacitance(materials.Copper, 6.9e-3, 0.06*0.06)
	r.TauShortSink = r.RthSi * r.CthSi
	r.TauOil = r.Rconv * (r.CthSi + r.CthOil)
	r.TauLongSink = r.Rconv * r.CthSink

	fp := floorplan.UniformDie("die", side, side)
	oil, err := hotspot.New(hotspot.Config{
		Floorplan: fp, DieThickness: thick, AmbientK: 300,
		Package: hotspot.OilSilicon, Oil: hotspot.OilConfig{Direction: hotspot.Uniform},
	})
	if err != nil {
		return nil, err
	}
	air, err := hotspot.New(hotspot.Config{
		Floorplan: fp, DieThickness: thick, AmbientK: 300,
		Package: hotspot.AirSink, Air: hotspot.AirSinkConfig{RConvec: r.Rconv},
	})
	if err != nil {
		return nil, err
	}
	r.ExtractedOil = oil.DominantTimeConstant()
	r.ExtractedSink = air.DominantTimeConstant()
	return r, nil
}

func (r *Fig7Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig. 7 — equivalent thermal circuits and time constants (20×20×0.5 mm die)\n")
	sb.WriteString(table([]string{"quantity", "value"}, [][]string{
		{"R_th,Si (K/W)", f3(r.RthSi) + "  (paper: 0.0125)"},
		{"R_conv (K/W)", f3(r.Rconv) + "  (paper: 1.042)"},
		{"C_th,Si (J/K)", f3(r.CthSi)},
		{"C_th,oil (J/K)", f3(r.CthOil) + "  (smaller than silicon)"},
		{"C_sink (J/K)", f1(r.CthSink) + fmt.Sprintf("  (%.0f× silicon)", r.CthSink/r.CthSi)},
		{"tau_short,sink = R_si·C_si (s)", fmt.Sprintf("%.2e", r.TauShortSink)},
		{"tau_all,oil = R_conv·(C_si+C_oil) (s)", f3(r.TauOil)},
		{"tau_long,sink = R_conv·C_sink (s)", f1(r.TauLongSink)},
		{"extracted dominant tau, oil network (s)", f3(r.ExtractedOil)},
		{"extracted dominant tau, sink network (s)", f1(r.ExtractedSink)},
	}))
	fmt.Fprintf(&sb, "short-term ratio R_conv/R_si = %.0f (two orders of magnitude, per the paper)\n", r.Rconv/r.RthSi)
	return sb.String()
}

// Fig8Result holds the short-term pulse response around the warm operating
// point (the paper's Fig. 8: 15 ms on / 85 ms off on one block, initial
// temperatures from the duty-cycle average power).
type Fig8Result struct {
	Times              []float64 // within one 100 ms period
	OilRiseK, AirRiseK []float64 // temperature above the period minimum
	// Heat-up amplitude within the on-phase.
	OilSwing, AirSwing float64
	// CoolHalf is the time (s) after the peak for the block to shed half
	// of its on-phase swing — the paper's "it takes much longer for
	// OIL-SILICON to cool down".
	OilCoolHalf, AirCoolHalf float64
}

// Fig8ShortTransient runs the pulse-train experiment.
func Fig8ShortTransient(opt Options) (*Fig8Result, error) {
	const hot = "Dcache" // same block as Fig. 6
	fp := floorplan.EV6()
	names := fp.Names()
	watts := 2.0e6 * fp.Blocks[fp.Index(hot)].Area()
	tr, err := trace.PulseTrain(names, hot, watts, 15e-3, 85e-3, 1e-3, 1)
	if err != nil {
		return nil, err
	}
	prep := func(m *hotspot.Model) (hotspot.ReplayJob, error) {
		pAvg, err := m.PowerVector(avgPowerMap(tr))
		if err != nil {
			return hotspot.ReplayJob{}, err
		}
		return hotspot.ReplayJob{Model: m, Temps: m.SteadyState(pAvg).Temps, Rows: tr.Reader()}, nil
	}
	// The rise above the period minimum of the pulsed block.
	series := func(pts []hotspot.TracePoint) (times, temps []float64) {
		idx := fp.Index(hot)
		times = make([]float64, len(pts))
		temps = make([]float64, len(pts))
		minT := pts[0].BlockC[idx]
		for _, p := range pts {
			if p.BlockC[idx] < minT {
				minT = p.BlockC[idx]
			}
		}
		for i, p := range pts {
			times[i] = p.Time
			temps[i] = p.BlockC[idx] - minT
		}
		return times, temps
	}
	oil, err := evOil(hotspot.Uniform, 1.0, false, warmupAmbientK)
	if err != nil {
		return nil, err
	}
	air, err := evAir(1.0, false, warmupAmbientK)
	if err != nil {
		return nil, err
	}
	oilJob, err := prep(oil)
	if err != nil {
		return nil, err
	}
	airJob, err := prep(air)
	if err != nil {
		return nil, err
	}
	pts, errs := hotspot.ReplayBatchResults([]hotspot.ReplayJob{oilJob, airJob}, 0)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	times, oilSeries := series(pts[0])
	_, airSeries := series(pts[1])
	res := &Fig8Result{Times: times, OilRiseK: oilSeries, AirRiseK: airSeries}
	coolHalf := func(s []float64) (swing, half float64) {
		pi, pv := 0, s[0]
		for i, v := range s {
			if v > pv {
				pi, pv = i, v
			}
		}
		swing = pv - s[0]
		target := pv - swing/2
		for i := pi + 1; i < len(s); i++ {
			if s[i] <= target {
				return swing, times[i] - times[pi]
			}
		}
		return swing, math.Inf(1) // never shed half within the period
	}
	var oilHalf, airHalf float64
	res.OilSwing, oilHalf = coolHalf(oilSeries)
	res.AirSwing, airHalf = coolHalf(airSeries)
	res.OilCoolHalf, res.AirCoolHalf = oilHalf, airHalf
	return res, nil
}

func (r *Fig8Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig. 8 — short-term pulse response (15 ms on / 85 ms off) after warm-up\n")
	fmt.Fprintf(&sb, "on-phase swing: OIL %.1f K, AIR %.1f K\n", r.OilSwing, r.AirSwing)
	fmt.Fprintf(&sb, "time to shed half the swing: OIL %.1f ms, AIR %.1f ms (paper: OIL cools much more slowly)\n",
		1e3*r.OilCoolHalf, 1e3*r.AirCoolHalf)
	rows := make([][]string, 0, 20)
	for i := 0; i < len(r.Times); i += 5 {
		rows = append(rows, []string{f3(r.Times[i]), f2(r.OilRiseK[i]), f2(r.AirRiseK[i])})
	}
	sb.WriteString(table([]string{"t(s)", "oil rise(K)", "air rise(K)"}, rows))
	return sb.String()
}

// Fig9Result reports the transient hot-spot migration experiment (the
// paper's Fig. 9: 2 W on IntReg for 10 ms, then 2 W on FPMap; at 14 ms the
// AIR-SINK hot spot has moved to FPMap while OIL-SILICON still shows
// IntReg).
type Fig9Result struct {
	Times                  []float64
	OilIntReg, OilFPMap    []float64 // rise above start, K
	AirIntReg, AirFPMap    []float64
	OilHotAt14, AirHotAt14 string
}

// Fig9HotSpotMigration runs the switching experiment.
func Fig9HotSpotMigration(opt Options) (*Fig9Result, error) {
	fp := floorplan.EV6()
	names := fp.Names()
	tr, err := trace.Switch(names, "IntReg", "FPMap", 2.0, 10e-3, 15e-3, 0.5e-3)
	if err != nil {
		return nil, err
	}
	run := func(m *hotspot.Model) (ir, fpm []float64, times []float64, err error) {
		// Start from the steady state of a small background power so both
		// blocks begin at comparable temperatures (the paper starts "from
		// the steady state").
		base := map[string]float64{"IntReg": 0.2, "FPMap": 0.2}
		pBase, err := m.PowerVector(base)
		if err != nil {
			return nil, nil, nil, err
		}
		state := m.SteadyState(pBase).Temps
		iIR, iFP := fp.Index("IntReg"), fp.Index("FPMap")
		t0IR := m.NewResult(state).BlockC("IntReg")
		t0FP := m.NewResult(state).BlockC("FPMap")
		pts, err := m.NewSession().ReplayRows(state, tr.Reader())
		if err != nil {
			return nil, nil, nil, err
		}
		for _, p := range pts {
			times = append(times, p.Time)
			ir = append(ir, p.BlockC[iIR]-t0IR)
			fpm = append(fpm, p.BlockC[iFP]-t0FP)
		}
		return ir, fpm, times, nil
	}
	oil, err := evOil(hotspot.Uniform, 1.0, false, warmupAmbientK)
	if err != nil {
		return nil, err
	}
	air, err := evAir(1.0, false, warmupAmbientK)
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{}
	res.OilIntReg, res.OilFPMap, res.Times, err = run(oil)
	if err != nil {
		return nil, err
	}
	res.AirIntReg, res.AirFPMap, _, err = run(air)
	if err != nil {
		return nil, err
	}
	// Who is hotter (in rise terms) at 14 ms?
	at := len(res.Times) - 1
	for i, t := range res.Times {
		if t >= 14e-3-1e-12 {
			at = i
			break
		}
	}
	pick := func(ir, fpm []float64) string {
		if fpm[at] > ir[at] {
			return "FPMap"
		}
		return "IntReg"
	}
	res.OilHotAt14 = pick(res.OilIntReg, res.OilFPMap)
	res.AirHotAt14 = pick(res.AirIntReg, res.AirFPMap)
	return res, nil
}

func (r *Fig9Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig. 9 — transient hot-spot migration (IntReg 10 ms → FPMap)\n")
	fmt.Fprintf(&sb, "hotter block at 14 ms: AIR-SINK %s (paper: FPMap), OIL-SILICON %s (paper: IntReg)\n",
		r.AirHotAt14, r.OilHotAt14)
	rows := make([][]string, 0, len(r.Times)/3+1)
	for i := 0; i < len(r.Times); i += 3 {
		rows = append(rows, []string{f3(r.Times[i]),
			f2(r.AirIntReg[i]), f2(r.AirFPMap[i]),
			f2(r.OilIntReg[i]), f2(r.OilFPMap[i])})
	}
	sb.WriteString(table([]string{"t(s)", "air IntReg", "air FPMap", "oil IntReg", "oil FPMap"}, rows))
	return sb.String()
}
