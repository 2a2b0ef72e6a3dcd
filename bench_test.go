// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation, one benchmark per artifact (see DESIGN.md §4 for the
// index). Run them all with:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the corresponding experiment in quick mode and
// reports headline numbers via b.ReportMetric, so a bench run doubles as a
// compact reproduction report. Micro-benchmarks for the solver and workload
// engine follow at the end.
package repro

import (
	"errors"
	"testing"

	"repro/internal/experiments"
	"repro/internal/floorplan"
	"repro/internal/hotspot"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/uarch"
)

var quick = experiments.Options{Quick: true}

func BenchmarkFig2TransientValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2TransientValidation(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RconvKperW, "Rconv_K/W")
		b.ReportMetric(r.Tau63Compact, "tau63_compact_s")
		b.ReportMetric(r.Tau63Reference, "tau63_reference_s")
		b.ReportMetric(r.MaxDeviationK, "max_deviation_K")
	}
}

func BenchmarkFig3SteadyValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3SteadyValidation(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.CompactMaxK, "Tmax_compact_K")
		b.ReportMetric(r.ReferenceMaxK, "Tmax_reference_K")
		b.ReportMetric(r.CompactDT, "dT_compact_K")
		b.ReportMetric(r.ReferenceDT, "dT_reference_K")
	}
}

func BenchmarkFig4AthlonMap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4AthlonMap(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.HottestC, "sched_C")
		b.ReportMetric(r.CoolestC, "coolest_C")
	}
}

func BenchmarkFig5SecondaryPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5SecondaryPath(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.OilDeltaHotC, "oil_delta_C")
		b.ReportMetric(100*r.AirDeltaHotFrac, "air_delta_pct")
		b.ReportMetric(100*r.OilSecondaryShare, "oil_secondary_pct")
	}
}

func BenchmarkFig6Warmup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6Warmup(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.OilHotSteady, "oil_hot_C")
		b.ReportMetric(r.AirHotSteady, "air_hot_C")
		b.ReportMetric(r.OilCoolSteady, "oil_cool_C")
		b.ReportMetric(r.AirCoolSteady, "air_cool_C")
	}
}

func BenchmarkFig7TimeConstants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7TimeConstants(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RthSi, "Rsi_K/W")
		b.ReportMetric(r.Rconv, "Rconv_K/W")
		b.ReportMetric(r.TauOil, "tau_oil_s")
		b.ReportMetric(r.TauLongSink, "tau_sink_s")
	}
}

func BenchmarkFig8ShortTransient(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8ShortTransient(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(1e3*r.OilCoolHalf, "oil_coolhalf_ms")
		b.ReportMetric(1e3*r.AirCoolHalf, "air_coolhalf_ms")
	}
}

func BenchmarkFig9HotSpotMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9HotSpotMigration(quick)
		if err != nil {
			b.Fatal(err)
		}
		migrated := 0.0
		if r.AirHotAt14 == "FPMap" {
			migrated = 1
		}
		retained := 0.0
		if r.OilHotAt14 == "IntReg" {
			retained = 1
		}
		b.ReportMetric(migrated, "air_migrated")
		b.ReportMetric(retained, "oil_retained")
	}
}

func BenchmarkFig10SteadyMaps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10SteadyMaps(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.OilMax, "oil_max_C")
		b.ReportMetric(r.AirMax, "air_max_C")
		b.ReportMetric(r.OilSpread, "oil_spread_C")
		b.ReportMetric(r.AirSpread, "air_spread_C")
	}
}

func BenchmarkFig11FlowDirections(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11FlowDirections(quick)
		if err != nil {
			b.Fatal(err)
		}
		flips := 0.0
		if r.Hottest[3] == "Dcache" {
			flips = 1
		}
		b.ReportMetric(flips, "t2b_hotspot_flips")
	}
}

func BenchmarkFig12TempTraces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12TempTraces(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.OilPeakC, "oil_peak_C")
		b.ReportMetric(r.AirPeakC, "air_peak_C")
		b.ReportMetric(r.AirRise3ms, "air_rise3ms_C")
	}
}

func BenchmarkSec52SensingFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Sec52SensingFrequency(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AirIntervalUS, "air_interval_us")
		b.ReportMetric(r.OilIntervalUS, "oil_interval_us")
	}
}

func BenchmarkSec53SensorGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Sec53SensorGranularity(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.GradientRatio, "oil_air_gradient_ratio")
		b.ReportMetric(r.OilErrC[0], "oil_1sensor_err_C")
		b.ReportMetric(r.AirErrC[0], "air_1sensor_err_C")
	}
}

func BenchmarkSec54PlacementInversion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Sec54PlacementInversion(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.NaiveSkewPercent, "blind_inversion_skew_pct")
		b.ReportMetric(r.JointErrC, "joint_placement_err_C")
	}
}

func BenchmarkExtDesignSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExtDesignSpace(quick)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range r.Points {
			if p.Name == "microchannel" {
				b.ReportMetric(p.MaxC, "microchannel_max_C")
				b.ReportMetric(p.RconvKperW, "microchannel_Rconv")
			}
		}
	}
}

func BenchmarkAblationLocalH(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationLocalH(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MaxDirectionalDeltaC, "local_delta_C")
		b.ReportMetric(r.UniformDeltaC, "uniform_delta_C")
	}
}

func BenchmarkAblationBoundaryCap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationBoundaryCap(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RiseWithC, "rise0.2s_withC_K")
		b.ReportMetric(r.RiseWithoutC, "rise0.2s_withoutC_K")
	}
}

func BenchmarkAblationIntegrator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationIntegrator(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.FinalDeltaK, "disagreement_K")
	}
}

func BenchmarkAblationSpreader(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationSpreader(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SpreadNormalC, "spread_1mm_C")
		b.ReportMetric(r.SpreadThinC, "spread_0.1mm_C")
		b.ReportMetric(r.SpreadOilC, "spread_oil_C")
	}
}

// --- Micro-benchmarks: solver and workload-engine throughput. ---

func ev6OilModel(b *testing.B) *hotspot.Model {
	b.Helper()
	m, err := hotspot.New(hotspot.Config{
		Floorplan: floorplan.EV6(),
		Package:   hotspot.OilSilicon,
		Oil:       hotspot.OilConfig{Direction: hotspot.LeftToRight, TargetRconv: 0.3},
		Secondary: hotspot.SecondaryPathConfig{Enabled: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkSteadyStateSolve(b *testing.B) {
	m := ev6OilModel(b)
	p, err := m.PowerVector(map[string]float64{"IntReg": 2, "L2": 6})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SteadyState(p)
	}
}

func BenchmarkTransientStepBE(b *testing.B) {
	m := ev6OilModel(b)
	p, err := m.PowerVector(map[string]float64{"IntReg": 2, "L2": 6})
	if err != nil {
		b.Fatal(err)
	}
	state := m.AmbientState()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Transient(state, p, 3.33e-6, 3.33e-6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUarchThroughput(b *testing.B) {
	s, err := uarch.NewStream(uarch.GCC(), 1)
	if err != nil {
		b.Fatal(err)
	}
	cpu, err := uarch.NewCPU(uarch.DefaultCPU(), s)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cpu.Run(1_000_000, 1_000_000); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1e6*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkTraceReplaySweep replays synthetic power traces against four EV6
// model configurations through the batched sweep API: four scenarios per
// model (the production shape — a sweep fans many workloads over a few
// cooling configurations), sixteen jobs total. Same-model scenarios advance
// in lockstep, solving all four right-hand sides per factor traversal; on
// multicore hosts the per-worker chunks additionally scale with GOMAXPROCS.
// See also internal/rcnet's Backend* benchmarks for the backend matrix and
// BenchmarkTransientBatch for the width-scaling curve.
func BenchmarkTraceReplaySweep(b *testing.B) {
	const perModel = 4
	fp := floorplan.EV6()
	names := fp.Names()
	blocks := []string{"IntReg", "FPMap", "Dcache", "Bpred"}
	traces := make([]*trace.PowerTrace, perModel)
	for i, blk := range blocks {
		tr, err := trace.PulseTrain(names, blk, 3, 5e-3, 5e-3, 0.5e-3, 3)
		if err != nil {
			b.Fatal(err)
		}
		traces[i] = tr
	}
	var models []*hotspot.Model
	for _, dir := range []hotspot.FlowDirection{hotspot.Uniform, hotspot.LeftToRight, hotspot.TopToBottom} {
		m, err := hotspot.New(hotspot.Config{
			Floorplan: fp,
			Package:   hotspot.OilSilicon,
			Oil:       hotspot.OilConfig{Direction: dir, TargetRconv: 0.3},
			Secondary: hotspot.SecondaryPathConfig{Enabled: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		models = append(models, m)
	}
	air, err := hotspot.New(hotspot.Config{
		Floorplan: fp,
		Package:   hotspot.AirSink,
		Air:       hotspot.AirSinkConfig{RConvec: 0.3},
	})
	if err != nil {
		b.Fatal(err)
	}
	models = append(models, air)
	jobs := make([]hotspot.ReplayJob, 0, len(models)*len(traces))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Each job starts from ambient (nil Temps) on a fresh cursor.
		jobs = jobs[:0]
		for _, m := range models {
			for _, tr := range traces {
				jobs = append(jobs, hotspot.ReplayJob{Model: m, Rows: tr.Reader()})
			}
		}
		_, errs := hotspot.ReplayBatchResults(jobs, 0)
		if err := errors.Join(errs...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "scenarios/s")
}

func BenchmarkPowerTraceConversion(b *testing.B) {
	s, err := uarch.NewStream(uarch.GCC(), 1)
	if err != nil {
		b.Fatal(err)
	}
	cpu, err := uarch.NewCPU(uarch.DefaultCPU(), s)
	if err != nil {
		b.Fatal(err)
	}
	samples, err := cpu.Run(1_000_000, 10_000)
	if err != nil {
		b.Fatal(err)
	}
	pm, err := power.New(power.DefaultWattch(), floorplan.EV6())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pm.Trace(samples); err != nil {
			b.Fatal(err)
		}
	}
}
