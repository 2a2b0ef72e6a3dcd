package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/hotspot"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// DesignPoint is one cooling configuration in the package design-space
// sweep.
type DesignPoint struct {
	Name       string
	RconvKperW float64
	// Steady-state metrics on the gcc average power.
	HottestBlock string
	MaxC         float64
	SpreadC      float64
	// Transient metric: dominant warm-up time constant.
	TauS float64
	// DTM metric: performance penalty of a fixed policy on a pulsed
	// workload (fraction of throughput lost).
	DTMPenalty float64
}

// ExtDesignSpaceResult sweeps the thermal-package design space the paper's
// §2.3 closes with ("the thermal package choice [is] another design knob"):
// air-sink at several R_convec, oil at several velocities, forced water and
// integrated microchannels — all on the same die and workload.
type ExtDesignSpaceResult struct {
	Points []DesignPoint
}

// ExtDesignSpace runs the sweep.
func ExtDesignSpace(opt Options) (*ExtDesignSpaceResult, error) {
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
	pulse, err := pulseOverloadTrace(fp)
	if err != nil {
		return nil, err
	}
	pulseAvg := avgPowerMap(pulse)

	type cfgSpec struct {
		name string
		cfg  hotspot.Config
	}
	specs := []cfgSpec{
		{"air-sink R=0.8", hotspot.Config{Floorplan: fp, Package: hotspot.AirSink, AmbientK: fig12AmbientK, Air: hotspot.AirSinkConfig{RConvec: 0.8}}},
		{"air-sink R=0.3", hotspot.Config{Floorplan: fp, Package: hotspot.AirSink, AmbientK: fig12AmbientK, Air: hotspot.AirSinkConfig{RConvec: 0.3}}},
		{"water-sink R=0.05", hotspot.Config{Floorplan: fp, Package: hotspot.AirSink, AmbientK: fig12AmbientK, Air: hotspot.AirSinkConfig{RConvec: 0.05}}},
		{"oil 10 m/s", hotspot.Config{Floorplan: fp, Package: hotspot.OilSilicon, AmbientK: fig12AmbientK, Oil: hotspot.OilConfig{Direction: hotspot.LeftToRight}}},
		{"oil 10 m/s + secondary", hotspot.Config{Floorplan: fp, Package: hotspot.OilSilicon, AmbientK: fig12AmbientK, Oil: hotspot.OilConfig{Direction: hotspot.LeftToRight}, Secondary: hotspot.SecondaryPathConfig{Enabled: true}}},
		{"microchannel", hotspot.Config{Floorplan: fp, Package: hotspot.Microchannel, AmbientK: fig12AmbientK}},
	}

	res := &ExtDesignSpaceResult{}
	for _, spec := range specs {
		m, err := hotspot.New(spec.cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		vec, err := m.PowerVector(powers)
		if err != nil {
			return nil, err
		}
		ss := m.SteadyState(vec)
		hot, maxC := ss.Hottest()

		// Fixed DTM policy on a pulsed overload: how much throughput does
		// this package cost? The trigger sits a fixed margin above the
		// pulse workload's own baseline so every package faces the same
		// headroom.
		pulseVec, err := m.PowerVector(pulseAvg)
		if err != nil {
			return nil, err
		}
		_, pulseBase := m.SteadyState(pulseVec).Hottest()
		// The loop is a one-cell scenario whose resolver hands back this
		// design point's model whatever its package spec resolves to:
		// microchannel is not a core.BuildConfig kind, and adding one would
		// open microchannel cooling to served scenarios.
		c, err := scenario.Compile(&scenario.Spec{
			Interval:      pulse.Interval,
			EmergencyC:    pulseBase + 50,
			InitialSteady: true,
			Phases:        []scenario.Phase{tracePhase(pulse)},
			Packages:      []scenario.PackageSpec{{Label: spec.name}},
			Policies: scenario.PolicyGrid{
				TriggerC:        []float64{pulseBase + 1.5},
				EngageDurationS: []float64{10e-3},
				SampleIntervalS: []float64{1e-3},
				PerfFactor:      []float64{0.5},
			},
		}, scenario.Options{Models: func(hotspot.Config) (*hotspot.Model, error) { return m, nil }})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		cell := c.RunGrid(nil, 1, nil)[0]
		if cell.Err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, cell.Err)
		}
		res.Points = append(res.Points, DesignPoint{
			Name:         spec.name,
			RconvKperW:   m.RconvEffective(),
			HottestBlock: hot,
			MaxC:         maxC,
			SpreadC:      ss.Spread(),
			TauS:         m.DominantTimeConstant(),
			DTMPenalty:   cell.Metrics.PerfPenalty,
		})
	}
	return res, nil
}

// pulseOverloadTrace builds the shared DTM stress input.
func pulseOverloadTrace(fp *floorplan.Floorplan) (*trace.PowerTrace, error) {
	return trace.PulseTrain(fp.Names(), "IntReg", 3.0, 30e-3, 70e-3, 1e-3, 5)
}

// tracePhase is a scenario phase that plays tr once, one row per control
// step when the scenario's interval is tr's.
func tracePhase(tr *trace.PowerTrace) scenario.Phase {
	return scenario.Phase{
		Duration: tr.Duration(),
		Trace:    &scenario.TraceSpec{Names: tr.Names, Interval: tr.Interval, Rows: tr.Rows},
	}
}

func (r *ExtDesignSpaceResult) String() string {
	var sb strings.Builder
	sb.WriteString("extension — thermal package design space (EV6/gcc)\n")
	rows := make([][]string, len(r.Points))
	for i, p := range r.Points {
		rows[i] = []string{p.Name, f3(p.RconvKperW), p.HottestBlock, f1(p.MaxC), f1(p.SpreadC),
			fmt.Sprintf("%.3g", p.TauS), fmt.Sprintf("%.1f%%", 100*p.DTMPenalty)}
	}
	sb.WriteString(table([]string{"package", "Rconv", "hottest", "max °C", "spread °C", "tau s", "DTM penalty"}, rows))
	sb.WriteString("(the package moves peak temperature, gradients and time constants — §2.3. The DTM column\n" +
		" barely measures the package: each trigger sits 1.5 °C above that package's own pulse baseline,\n" +
		" and the 30 ms bursts are far shorter than the sinks' 11.6–186 s time constants, so the die heats\n" +
		" past the trigger alike and all three sinks pay the same penalty)\n")
	return sb.String()
}
