package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/hotspot"
	"repro/internal/ircam"
	"repro/internal/sensors"
)

// Sec52Result is the sensing-frequency calculation of §5.2: from the
// maximum observed heating rate and a target resolution, derive the longest
// admissible sensor sampling interval.
type Sec52Result struct {
	AirMaxRateCPerS, OilMaxRateCPerS float64
	ResolutionC                      float64
	AirIntervalUS, OilIntervalUS     float64
}

// Sec52SensingFrequency derives sampling intervals from short Fig. 12-style
// runs.
func Sec52SensingFrequency(opt Options) (*Sec52Result, error) {
	fig12, err := Fig12TempTraces(Options{Quick: true})
	if err != nil {
		return nil, err
	}
	block := "IntReg"
	if _, ok := fig12.AirC[block]; !ok {
		block = fig12.Blocks[0]
	}
	times := make([]float64, len(fig12.TimesUS))
	for i, us := range fig12.TimesUS {
		times[i] = us * 1e-6
	}
	airRate, err := sensors.MaxHeatingRate(times, fig12.AirC[block])
	if err != nil {
		return nil, err
	}
	oilRate, err := sensors.MaxHeatingRate(times, fig12.OilC[block])
	if err != nil {
		return nil, err
	}
	const resolution = 0.1
	airIv, err := sensors.SamplingInterval(airRate, resolution)
	if err != nil {
		return nil, err
	}
	oilIv, err := sensors.SamplingInterval(oilRate, resolution)
	if err != nil {
		return nil, err
	}
	return &Sec52Result{
		AirMaxRateCPerS: airRate, OilMaxRateCPerS: oilRate,
		ResolutionC:   resolution,
		AirIntervalUS: airIv * 1e6, OilIntervalUS: oilIv * 1e6,
	}, nil
}

func (r *Sec52Result) String() string {
	var sb strings.Builder
	sb.WriteString("§5.2 — thermal sensing frequency\n")
	fmt.Fprintf(&sb, "max heating rate: AIR %.0f °C/s, OIL %.0f °C/s (paper: ≈5 °C per 3 ms ≈ 1667 °C/s)\n",
		r.AirMaxRateCPerS, r.OilMaxRateCPerS)
	fmt.Fprintf(&sb, "sampling interval for %.1f °C resolution: AIR %.0f µs, OIL %.0f µs (paper: ≤60 µs)\n",
		r.ResolutionC, r.AirIntervalUS, r.OilIntervalUS)
	return sb.String()
}

// Sec53Result is the sensing-granularity study of §5.3: worst-case hot-spot
// error vs sensor count for both packages. The steeper OIL-SILICON gradient
// needs more sensors (or larger guard margins).
type Sec53Result struct {
	Budgets       []int
	AirErrC       []float64
	OilErrC       []float64
	SpreadC       [2]float64 // air, oil across-die spread
	GradientRatio float64
}

// Sec53SensorGranularity runs the placement-error sweep.
func Sec53SensorGranularity(opt Options) (*Sec53Result, error) {
	cycles := uint64(20_000_000)
	if opt.Quick {
		cycles = 8_000_000
	}
	tr, err := core.RunWorkload(core.WorkloadSpec{Cycles: cycles, WarmupCycles: 3_000_000})
	if err != nil {
		return nil, err
	}
	powers := avgPowerMap(tr)
	fp := floorplan.EV6()
	mapFor := func(m *hotspot.Model) (*sensors.ThermalMap, *hotspot.Result, error) {
		p, err := m.PowerVector(powers)
		if err != nil {
			return nil, nil, err
		}
		res := m.SteadyState(p)
		grid := res.Grid(32, 32)
		tm, err := sensors.NewThermalMap(32, 32, fp.Width(), fp.Height(), grid)
		return tm, res, err
	}
	oilM, err := evOil(hotspot.Uniform, 1.0, false, fig12AmbientK)
	if err != nil {
		return nil, err
	}
	airM, err := evAir(1.0, false, fig12AmbientK)
	if err != nil {
		return nil, err
	}
	oilMap, oilRes, err := mapFor(oilM)
	if err != nil {
		return nil, err
	}
	airMap, airRes, err := mapFor(airM)
	if err != nil {
		return nil, err
	}
	cands := sensors.CandidateGrid(fp, 6, 6)
	const maxK = 6
	oilErr, err := sensors.ErrorVsCount(cands, []*sensors.ThermalMap{oilMap}, maxK)
	if err != nil {
		return nil, err
	}
	airErr, err := sensors.ErrorVsCount(cands, []*sensors.ThermalMap{airMap}, maxK)
	if err != nil {
		return nil, err
	}
	res := &Sec53Result{AirErrC: airErr, OilErrC: oilErr}
	for k := 1; k <= maxK; k++ {
		res.Budgets = append(res.Budgets, k)
	}
	res.SpreadC[0] = airRes.Spread()
	res.SpreadC[1] = oilRes.Spread()
	res.GradientRatio = res.SpreadC[1] / res.SpreadC[0]
	return res, nil
}

func (r *Sec53Result) String() string {
	var sb strings.Builder
	sb.WriteString("§5.3 — thermal sensing granularity (worst-case hot-spot error vs sensor count)\n")
	fmt.Fprintf(&sb, "across-die spread: AIR %.0f °C, OIL %.0f °C (%.1f× steeper gradients for oil)\n",
		r.SpreadC[0], r.SpreadC[1], r.GradientRatio)
	rows := make([][]string, len(r.Budgets))
	for i, k := range r.Budgets {
		rows[i] = []string{fmt.Sprintf("%d", k), f2(r.AirErrC[i]), f2(r.OilErrC[i])}
	}
	sb.WriteString(table([]string{"sensors", "air err(°C)", "oil err(°C)"}, rows))
	sb.WriteString("(paper: OIL-SILICON needs more sensors or a larger DTM guard margin)\n")
	return sb.String()
}

// Sec54Result covers flow-direction-aware placement (§5.4): where a sensor
// trained on one flow direction should go, whether it covers the other
// directions, and the power-inversion artifact for a multicore under
// directional flow.
type Sec54Result struct {
	// Sensor placement trained on each single direction (block of the best
	// single sensor) and its worst-case error across ALL directions.
	TrainDirection []string
	SensorBlock    []string
	ErrTrainedC    []float64 // error on its own direction
	ErrAllC        []float64 // worst error across all four directions
	// Placement trained on all directions jointly.
	JointSensorBlocks []string
	JointErrC         float64
	// Inversion artifact: equal-power multicore under left-to-right flow.
	TruePowerW       []float64
	NaiveInvertedW   []float64 // uniform-h (direction-blind) inversion
	AwareInvertedW   []float64 // direction-aware inversion
	NaiveSkewPercent float64   // (max-min)/true power
}

// Sec54PlacementInversion runs both §5.4 studies.
func Sec54PlacementInversion(opt Options) (*Sec54Result, error) {
	cycles := uint64(20_000_000)
	if opt.Quick {
		cycles = 8_000_000
	}
	tr, err := core.RunWorkload(core.WorkloadSpec{Cycles: cycles, WarmupCycles: 3_000_000})
	if err != nil {
		return nil, err
	}
	powers := avgPowerMap(tr)
	fp := floorplan.EV6()
	maps := make([]*sensors.ThermalMap, len(hotspot.Directions))
	for d, dir := range hotspot.Directions {
		m, err := evOil(dir, 1.0, false, fig12AmbientK)
		if err != nil {
			return nil, err
		}
		p, err := m.PowerVector(powers)
		if err != nil {
			return nil, err
		}
		grid := m.SteadyState(p).Grid(32, 32)
		maps[d], err = sensors.NewThermalMap(32, 32, fp.Width(), fp.Height(), grid)
		if err != nil {
			return nil, err
		}
	}
	cands := sensors.CandidateGrid(fp, 8, 8)
	res := &Sec54Result{}
	for d, dir := range hotspot.Directions {
		placed, errOwn, err := sensors.Place(cands, maps[d:d+1], 1)
		if err != nil {
			return nil, err
		}
		res.TrainDirection = append(res.TrainDirection, dir.String())
		res.SensorBlock = append(res.SensorBlock, placed[0].Block)
		res.ErrTrainedC = append(res.ErrTrainedC, errOwn)
		worst := 0.0
		for _, m := range maps {
			if e := sensors.HotSpotError(m, placed); e > worst {
				worst = e
			}
		}
		res.ErrAllC = append(res.ErrAllC, worst)
	}
	joint, jointErr, err := sensors.Place(cands, maps, 2)
	if err != nil {
		return nil, err
	}
	for _, s := range joint {
		res.JointSensorBlocks = append(res.JointSensorBlocks, s.Block)
	}
	res.JointErrC = jointErr

	// Inversion artifact on an equal-power multicore.
	mm := 1e-3
	cores := floorplan.MustNew([]floorplan.Block{
		{Name: "core0", Width: 5 * mm, Height: 20 * mm, X: 0, Y: 0},
		{Name: "core1", Width: 5 * mm, Height: 20 * mm, X: 5 * mm, Y: 0},
		{Name: "core2", Width: 5 * mm, Height: 20 * mm, X: 10 * mm, Y: 0},
		{Name: "core3", Width: 5 * mm, Height: 20 * mm, X: 15 * mm, Y: 0},
	})
	truthModel, err := hotspot.New(hotspot.Config{
		Floorplan: cores, Package: hotspot.OilSilicon,
		Oil: hotspot.OilConfig{Direction: hotspot.LeftToRight},
	})
	if err != nil {
		return nil, err
	}
	res.TruePowerW = []float64{10, 10, 10, 10}
	vec, err := truthModel.BlockPowerVector(res.TruePowerW)
	if err != nil {
		return nil, err
	}
	obs := truthModel.SteadyState(vec).BlocksC()
	naiveModel, err := hotspot.New(hotspot.Config{
		Floorplan: cores, Package: hotspot.OilSilicon,
		Oil: hotspot.OilConfig{Direction: hotspot.Uniform},
	})
	if err != nil {
		return nil, err
	}
	res.NaiveInvertedW, err = ircam.InvertPower(naiveModel, obs, 0)
	if err != nil {
		return nil, err
	}
	res.AwareInvertedW, err = ircam.InvertPower(truthModel, obs, 0)
	if err != nil {
		return nil, err
	}
	mn, mx := res.NaiveInvertedW[0], res.NaiveInvertedW[0]
	for _, v := range res.NaiveInvertedW {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	res.NaiveSkewPercent = 100 * (mx - mn) / res.TruePowerW[0]
	return res, nil
}

func (r *Sec54Result) String() string {
	var sb strings.Builder
	sb.WriteString("§5.4 — sensor placement and power inversion under flow direction\n")
	rows := make([][]string, len(r.TrainDirection))
	for i := range r.TrainDirection {
		rows[i] = []string{r.TrainDirection[i], r.SensorBlock[i], f2(r.ErrTrainedC[i]), f2(r.ErrAllC[i])}
	}
	sb.WriteString(table([]string{"trained on", "sensor block", "err(own)", "err(all dirs)"}, rows))
	fmt.Fprintf(&sb, "joint placement (2 sensors: %s) worst error %.2f °C\n",
		strings.Join(r.JointSensorBlocks, ", "), r.JointErrC)
	sb.WriteString("\nequal-power multicore, left-to-right flow, reverse-engineered power (W):\n")
	rows = rows[:0]
	for i := range r.TruePowerW {
		rows = append(rows, []string{fmt.Sprintf("core%d", i),
			f2(r.TruePowerW[i]), f2(r.NaiveInvertedW[i]), f2(r.AwareInvertedW[i])})
	}
	sb.WriteString(table([]string{"core", "true", "direction-blind", "direction-aware"}, rows))
	fmt.Fprintf(&sb, "direction-blind skew across cores: %.0f%% of true power (paper: downstream cores appear hotter ⇒ inflated power)\n",
		r.NaiveSkewPercent)
	return sb.String()
}
