package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/hotspot"
)

// AblationLocalHResult quantifies what the local h(x) model adds: with the
// plate-average coefficient everywhere (direction-blind), the Fig. 11
// direction dependence collapses to nothing.
type AblationLocalHResult struct {
	// MaxDirectionalDeltaC is the largest per-block temperature difference
	// across the four directions with local h(x).
	MaxDirectionalDeltaC float64
	// UniformDeltaC is the same quantity when every direction uses the
	// plate-average h (should be ≈0).
	UniformDeltaC float64
	HotBlockFlips bool // does the hottest unit change with direction?
}

// AblationLocalH runs the Fig. 11 sweep with and without the local-h model.
func AblationLocalH(opt Options) (*AblationLocalHResult, error) {
	tr, err := core.RunWorkload(core.WorkloadSpec{Cycles: 8_000_000, WarmupCycles: 3_000_000})
	if err != nil {
		return nil, err
	}
	powers := avgPowerMap(tr)
	run := func(local bool) (float64, map[string]bool, error) {
		var per [][]float64
		hotset := map[string]bool{}
		for _, dir := range hotspot.Directions {
			useDir := dir
			if !local {
				useDir = hotspot.Uniform
			}
			m, err := evOil(useDir, 1.0, false, fig12AmbientK)
			if err != nil {
				return 0, nil, err
			}
			p, err := m.PowerVector(powers)
			if err != nil {
				return 0, nil, err
			}
			r := m.SteadyState(p)
			per = append(per, r.BlocksC())
			h, _ := r.Hottest()
			hotset[h] = true
		}
		var maxDelta float64
		for bi := range per[0] {
			lo, hi := per[0][bi], per[0][bi]
			for _, series := range per {
				lo = math.Min(lo, series[bi])
				hi = math.Max(hi, series[bi])
			}
			maxDelta = math.Max(maxDelta, hi-lo)
		}
		return maxDelta, hotset, nil
	}
	localDelta, localHot, err := run(true)
	if err != nil {
		return nil, err
	}
	uniformDelta, _, err := run(false)
	if err != nil {
		return nil, err
	}
	return &AblationLocalHResult{
		MaxDirectionalDeltaC: localDelta,
		UniformDeltaC:        uniformDelta,
		HotBlockFlips:        len(localHot) > 1,
	}, nil
}

func (r *AblationLocalHResult) String() string {
	return fmt.Sprintf(`ablation — local h(x) vs uniform h
max per-block delta across directions: local %.1f °C, uniform %.2f °C
hottest unit changes with direction: %v
(the entire Fig. 11 effect lives in the local-h model)
`, r.MaxDirectionalDeltaC, r.UniformDeltaC, r.HotBlockFlips)
}

// AblationBoundaryCapResult quantifies the oil boundary layer's thermal
// capacitance (paper eq. 3): removing it changes the sub-millisecond
// response but not the steady state.
type AblationBoundaryCapResult struct {
	SteadyDeltaC float64
	// Rise over the first 0.2 s of a power step, with and without C_oil.
	// The oil layer adds ≈30% to the R_conv·C time constant (eq. 6), so the
	// capacitance-less model runs visibly ahead at this time scale.
	RiseWithC, RiseWithoutC float64
}

// AblationBoundaryCap runs the comparison on the validation die.
func AblationBoundaryCap(opt Options) (*AblationBoundaryCapResult, error) {
	fp := floorplan.UniformDie("die", 0.020, 0.020)
	build := func(disable bool) (*hotspot.Model, error) {
		return hotspot.New(hotspot.Config{
			Floorplan: fp, DieThickness: 0.5e-3, AmbientK: 300,
			Package: hotspot.OilSilicon,
			Oil:     hotspot.OilConfig{Direction: hotspot.Uniform, DisableBoundaryCapacitance: disable},
		})
	}
	with, err := build(false)
	if err != nil {
		return nil, err
	}
	without, err := build(true)
	if err != nil {
		return nil, err
	}
	rise := func(m *hotspot.Model) (float64, float64, error) {
		p, err := m.PowerVector(map[string]float64{"die": 200})
		if err != nil {
			return 0, 0, err
		}
		state := m.AmbientState()
		if err := m.Transient(state, p, 0.2, 1e-3); err != nil {
			return 0, 0, err
		}
		return m.NewResult(state).BlockK("die") - 300, m.SteadyState(p).BlockK("die"), nil
	}
	rw, sw, err := rise(with)
	if err != nil {
		return nil, err
	}
	rwo, swo, err := rise(without)
	if err != nil {
		return nil, err
	}
	return &AblationBoundaryCapResult{
		SteadyDeltaC: math.Abs(sw - swo),
		RiseWithC:    rw,
		RiseWithoutC: rwo,
	}, nil
}

func (r *AblationBoundaryCapResult) String() string {
	return fmt.Sprintf(`ablation — oil boundary-layer capacitance (eq. 3)
steady-state difference: %.3g °C (must be ~0)
0.2 s step rise: with C_oil %.1f K, without %.1f K
`, r.SteadyDeltaC, r.RiseWithC, r.RiseWithoutC)
}

// AblationIntegratorResult compares the backward-Euler default against the
// HotSpot-style adaptive RK4 on a stiff OIL-SILICON transient.
type AblationIntegratorResult struct {
	FinalDeltaK  float64 // disagreement after the run
	BETime       time.Duration
	AdaptiveTime time.Duration
}

// AblationIntegrator times both integrators on the same warmup transient.
func AblationIntegrator(opt Options) (*AblationIntegratorResult, error) {
	m, err := evOil(hotspot.Uniform, 1.0, false, warmupAmbientK)
	if err != nil {
		return nil, err
	}
	p, err := m.PowerVector(map[string]float64{"IntReg": 2})
	if err != nil {
		return nil, err
	}
	duration := 0.25
	s1 := m.AmbientState()
	t0 := time.Now()
	if err := m.Transient(s1, p, duration, 1e-3); err != nil {
		return nil, err
	}
	beTime := time.Since(t0)
	s2 := m.AmbientState()
	t0 = time.Now()
	if err := m.TransientAdaptive(s2, p, duration, 1e-5); err != nil {
		return nil, err
	}
	adTime := time.Since(t0)
	var delta float64
	for i := range s1 {
		if d := math.Abs(s1[i] - s2[i]); d > delta {
			delta = d
		}
	}
	return &AblationIntegratorResult{FinalDeltaK: delta, BETime: beTime, AdaptiveTime: adTime}, nil
}

func (r *AblationIntegratorResult) String() string {
	return fmt.Sprintf(`ablation — integrator choice on a stiff oil network (0.25 s warmup)
backward Euler (1 ms steps): %v
adaptive RK4 (1e-5 K tol):  %v
final-state disagreement: %.3f K
`, r.BETime, r.AdaptiveTime, r.FinalDeltaK)
}

// AblationSpreaderResult quantifies the copper spreader/sink lateral
// contribution: thinning the spreader pushes the AIR-SINK gradient toward
// OIL-SILICON's.
type AblationSpreaderResult struct {
	SpreadNormalC float64 // default 1 mm spreader
	SpreadThinC   float64 // 0.1 mm spreader
	SpreadOilC    float64 // oil reference
}

// AblationSpreader runs the comparison.
func AblationSpreader(opt Options) (*AblationSpreaderResult, error) {
	power := map[string]float64{"IntReg": 2}
	spreadFor := func(thick float64) (float64, error) {
		m, err := hotspot.New(hotspot.Config{
			Floorplan: floorplan.EV6(), AmbientK: warmupAmbientK,
			Package: hotspot.AirSink,
			Air:     hotspot.AirSinkConfig{RConvec: 1.0, SpreaderThickness: thick},
		})
		if err != nil {
			return 0, err
		}
		p, err := m.PowerVector(power)
		if err != nil {
			return 0, err
		}
		return m.SteadyState(p).Spread(), nil
	}
	normal, err := spreadFor(1e-3)
	if err != nil {
		return nil, err
	}
	thin, err := spreadFor(0.1e-3)
	if err != nil {
		return nil, err
	}
	oil, err := evOil(hotspot.Uniform, 1.0, false, warmupAmbientK)
	if err != nil {
		return nil, err
	}
	p, err := oil.PowerVector(power)
	if err != nil {
		return nil, err
	}
	return &AblationSpreaderResult{
		SpreadNormalC: normal,
		SpreadThinC:   thin,
		SpreadOilC:    oil.SteadyState(p).Spread(),
	}, nil
}

func (r *AblationSpreaderResult) String() string {
	var sb strings.Builder
	sb.WriteString("ablation — copper lateral spreading\n")
	sb.WriteString(table([]string{"configuration", "across-die spread (°C)"}, [][]string{
		{"AIR-SINK, 1 mm spreader", f1(r.SpreadNormalC)},
		{"AIR-SINK, 0.1 mm spreader", f1(r.SpreadThinC)},
		{"OIL-SILICON (no spreader)", f1(r.SpreadOilC)},
	}))
	sb.WriteString("(removing copper pushes the gradient toward the oil configuration)\n")
	return sb.String()
}
