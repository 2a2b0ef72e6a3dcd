// Package core is the high-level entry point of the reproduction (the
// workload layer of DESIGN.md §1): it wires the synthetic workload engine
// (uarch), the Wattch-style power model (power), the modified HotSpot
// thermal model (hotspot) and the IR-camera inversion (ircam) into
// one-call scenarios reproducing the paper's §5 experimental setup.
// Closed-loop DTM runs in internal/scenario, which resolves its packages
// through BuildConfig. The cmd/ tools and examples/ programs are thin
// shells over this package.
//
// It also implements the paper's stated future-work goal (§6): ascertaining
// the thermal response of an air-cooled chip from measurements taken under
// the oil-cooled IR configuration, by inverting the oil-model influence
// matrix to a power map and forward-modeling the air-sink package.
package core

import (
	"fmt"

	"repro/internal/floorplan"
	"repro/internal/hotspot"
	"repro/internal/ircam"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// Scenario bundles a floorplan, a thermal package and a workload-derived
// power trace.
type Scenario struct {
	Floorplan *floorplan.Floorplan
	Model     *hotspot.Model
	Trace     *trace.PowerTrace
}

// WorkloadSpec selects a synthetic workload run.
type WorkloadSpec struct {
	// Name is one of "gcc", "mcf", "art".
	Name string
	// Cycles simulated after warm-up (default 20M).
	Cycles uint64
	// WarmupCycles run before sampling (default 3M).
	WarmupCycles uint64
	// IntervalCycles between power samples (default 10K ≈ 3.3 µs).
	IntervalCycles uint64
	// Seed for the synthetic stream (default 2009).
	Seed int64
}

func (w WorkloadSpec) defaulted() WorkloadSpec {
	if w.Name == "" {
		w.Name = "gcc"
	}
	if w.Cycles == 0 {
		w.Cycles = 20_000_000
	}
	if w.WarmupCycles == 0 {
		w.WarmupCycles = 3_000_000
	}
	if w.IntervalCycles == 0 {
		w.IntervalCycles = 10_000
	}
	if w.Seed == 0 {
		w.Seed = 2009
	}
	return w
}

// RunWorkload executes the uarch pipeline for the named workload and returns
// the per-block EV6 power trace.
func RunWorkload(spec WorkloadSpec) (*trace.PowerTrace, error) {
	spec = spec.defaulted()
	wl, ok := uarch.Preset(spec.Name)
	if !ok {
		return nil, fmt.Errorf("core: unknown workload %q (have gcc, mcf, art)", spec.Name)
	}
	stream, err := uarch.NewStream(wl, spec.Seed)
	if err != nil {
		return nil, err
	}
	cpu, err := uarch.NewCPU(uarch.DefaultCPU(), stream)
	if err != nil {
		return nil, err
	}
	if spec.WarmupCycles > 0 {
		if _, err := cpu.Run(spec.WarmupCycles, spec.WarmupCycles); err != nil {
			return nil, err
		}
	}
	samples, err := cpu.Run(spec.Cycles, spec.IntervalCycles)
	if err != nil {
		return nil, err
	}
	pm, err := power.New(power.DefaultWattch(), floorplan.EV6())
	if err != nil {
		return nil, err
	}
	return pm.Trace(samples)
}

// PackageSpec selects a cooling configuration by name.
type PackageSpec struct {
	// Kind is "air-sink", "oil-silicon" or "water-sink" (forced water over
	// the same sink: an AIR-SINK stack with a much lower convection
	// resistance, one of the §2.1 taxonomy points).
	Kind string
	// Rconv overrides the case-to-ambient (air/water) or oil-boundary
	// convection resistance (K/W); 0 keeps the package default.
	Rconv float64
	// Direction is the oil flow direction ("uniform", "left-to-right",
	// "right-to-left", "bottom-to-top", "top-to-bottom").
	Direction string
	// Secondary enables the secondary heat transfer path.
	Secondary bool
	// AmbientK defaults to 318.15 K (45 °C).
	AmbientK float64
}

// ParseDirection maps a direction name to the model enum.
func ParseDirection(s string) (hotspot.FlowDirection, error) {
	switch s {
	case "", "uniform":
		return hotspot.Uniform, nil
	case "left-to-right", "l2r":
		return hotspot.LeftToRight, nil
	case "right-to-left", "r2l":
		return hotspot.RightToLeft, nil
	case "bottom-to-top", "b2t":
		return hotspot.BottomToTop, nil
	case "top-to-bottom", "t2b":
		return hotspot.TopToBottom, nil
	default:
		return 0, fmt.Errorf("core: unknown flow direction %q", s)
	}
}

// BuildConfig resolves a floorplan and package spec into a full model
// configuration without compiling it. Callers that key caches on the
// configuration's Fingerprint use this to hash before paying for
// hotspot.New.
func BuildConfig(fp *floorplan.Floorplan, spec PackageSpec) (hotspot.Config, error) {
	cfg := hotspot.Config{
		Floorplan: fp,
		AmbientK:  spec.AmbientK,
		Secondary: hotspot.SecondaryPathConfig{Enabled: spec.Secondary},
	}
	switch spec.Kind {
	case "", "air-sink":
		cfg.Package = hotspot.AirSink
		if spec.Rconv > 0 {
			cfg.Air.RConvec = spec.Rconv
		}
	case "water-sink":
		cfg.Package = hotspot.AirSink
		cfg.Air.RConvec = 0.05 // forced water loop
		if spec.Rconv > 0 {
			cfg.Air.RConvec = spec.Rconv
		}
	case "oil-silicon":
		cfg.Package = hotspot.OilSilicon
		dir, err := ParseDirection(spec.Direction)
		if err != nil {
			return hotspot.Config{}, err
		}
		cfg.Oil.Direction = dir
		if spec.Rconv > 0 {
			cfg.Oil.TargetRconv = spec.Rconv
		}
	default:
		return hotspot.Config{}, fmt.Errorf("core: unknown package kind %q (have air-sink, oil-silicon, water-sink)", spec.Kind)
	}
	return cfg, nil
}

// BuildModel constructs a thermal model for the floorplan and package spec.
func BuildModel(fp *floorplan.Floorplan, spec PackageSpec) (*hotspot.Model, error) {
	cfg, err := BuildConfig(fp, spec)
	if err != nil {
		return nil, err
	}
	return hotspot.New(cfg)
}

// NewScenario builds a complete EV6 scenario: workload → power trace →
// thermal model.
func NewScenario(workload WorkloadSpec, pkg PackageSpec) (*Scenario, error) {
	fp := floorplan.EV6()
	tr, err := RunWorkload(workload)
	if err != nil {
		return nil, err
	}
	m, err := BuildModel(fp, pkg)
	if err != nil {
		return nil, err
	}
	return &Scenario{Floorplan: fp, Model: m, Trace: tr}, nil
}

// AveragePowerMap returns the trace's time-average power per block.
func (s *Scenario) AveragePowerMap() map[string]float64 {
	avg := s.Trace.Average()
	p := make(map[string]float64, len(s.Trace.Names))
	for i, n := range s.Trace.Names {
		p[n] = avg[i]
	}
	return p
}

// SteadyState solves the scenario's steady state on the trace's average
// power.
func (s *Scenario) SteadyState() (*hotspot.Result, error) {
	vec, err := s.Model.PowerVector(s.AveragePowerMap())
	if err != nil {
		return nil, err
	}
	return s.Model.SteadyState(vec), nil
}

// RunTransient plays the power trace through the thermal model, one
// backward-Euler step per row, from the average-power steady state and
// returns the block temperatures before the first row and after each.
func (s *Scenario) RunTransient() ([]hotspot.TracePoint, error) {
	ss, err := s.SteadyState()
	if err != nil {
		return nil, err
	}
	return s.Model.NewSession().ReplayRows(ss.Temps, s.Trace.Reader())
}

// ReconcileResult is the output of ReconcileAirFromOil: the paper's §6
// future-work derivation chain.
type ReconcileResult struct {
	// InferredPowerW is the per-block power recovered from the oil-side
	// temperature map (floorplan order).
	InferredPowerW []float64
	// PredictedAirC is the forward-modeled AIR-SINK steady state using the
	// inferred powers.
	PredictedAirC []float64
	// TrueAirC is the AIR-SINK steady state on the true powers (for
	// validation; callers with only measurements won't have it).
	TrueAirC []float64
	// MaxErrorC is the largest per-block |predicted − true|.
	MaxErrorC float64
}

// ReconcileAirFromOil implements the paper's future-work goal: given an
// OIL-SILICON measurement (per-block temperatures under oilModel's
// configuration), recover the power map by inverting the oil model, then
// predict what the same die would do in an AIR-SINK package. truePower (may
// be nil) enables error reporting against the ground truth.
func ReconcileAirFromOil(oilModel, airModel *hotspot.Model, observedOilC []float64, truePower []float64) (*ReconcileResult, error) {
	if oilModel.Floorplan().N() != airModel.Floorplan().N() {
		return nil, fmt.Errorf("core: floorplan mismatch between models")
	}
	inferred, err := ircam.InvertPower(oilModel, observedOilC, 1e-6)
	if err != nil {
		return nil, err
	}
	vec, err := airModel.BlockPowerVector(inferred)
	if err != nil {
		return nil, err
	}
	res := &ReconcileResult{
		InferredPowerW: inferred,
		PredictedAirC:  airModel.SteadyState(vec).BlocksC(),
	}
	if truePower != nil {
		tv, err := airModel.BlockPowerVector(truePower)
		if err != nil {
			return nil, err
		}
		res.TrueAirC = airModel.SteadyState(tv).BlocksC()
		for i := range res.TrueAirC {
			d := res.PredictedAirC[i] - res.TrueAirC[i]
			if d < 0 {
				d = -d
			}
			if d > res.MaxErrorC {
				res.MaxErrorC = d
			}
		}
	}
	return res, nil
}
