package dtm

import (
	"testing"

	"repro/internal/floorplan"
	"repro/internal/hotspot"
	"repro/internal/trace"
)

func evModel(t *testing.T, kind hotspot.PackageKind, rconv float64) *hotspot.Model {
	t.Helper()
	cfg := hotspot.Config{Floorplan: floorplan.EV6(), Package: kind}
	if kind == hotspot.OilSilicon {
		cfg.Oil = hotspot.OilConfig{TargetRconv: rconv}
	} else {
		cfg.Air = hotspot.AirSinkConfig{RConvec: rconv}
	}
	m, err := hotspot.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// burstTrace alternates hot bursts on IntReg with idle periods.
func burstTrace(t *testing.T) *trace.PowerTrace {
	t.Helper()
	tr, err := trace.PulseTrain(floorplan.EV6().Names(), "IntReg", 3.0, 30e-3, 70e-3, 1e-3, 10)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func basePolicy() Policy {
	return Policy{
		TriggerC:       70,
		EngageDuration: 5e-3,
		SampleInterval: 1e-3,
		PerfFactor:     0.5,
		Actuator:       FetchGate,
	}
}

func TestPolicyValidate(t *testing.T) {
	good := basePolicy()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mod := range []func(*Policy){
		func(p *Policy) { p.TriggerC = 0 },
		func(p *Policy) { p.EngageDuration = 0 },
		func(p *Policy) { p.SampleInterval = -1 },
		func(p *Policy) { p.PerfFactor = 0 },
		func(p *Policy) { p.PerfFactor = 1.5 },
	} {
		p := basePolicy()
		mod(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("expected validation error for %+v", p)
		}
	}
}

func TestDVFSCutsPowerCubically(t *testing.T) {
	p := basePolicy()
	p.Actuator = DVFS
	p.PerfFactor = 0.5
	if s := p.PowerScale(); s != 0.125 {
		t.Fatalf("DVFS power scale %g, want 0.125", s)
	}
	p.Actuator = FetchGate
	if s := p.PowerScale(); s != 0.5 {
		t.Fatalf("fetch-gate power scale %g, want 0.5", s)
	}
}

func TestDTMCapsTemperature(t *testing.T) {
	m := evModel(t, hotspot.OilSilicon, 1.0)
	tr := burstTrace(t)
	policy := basePolicy()
	policy.TriggerC = 60

	cfgOff := Config{Model: m, Trace: tr, Policy: policy, EmergencyC: 1000, InitialSteady: true}
	// Effectively disable DTM with an unreachable trigger.
	cfgOff.Policy.TriggerC = 1e6
	off, _, err := Run(cfgOff, "")
	if err != nil {
		t.Fatal(err)
	}
	cfgOn := cfgOff
	cfgOn.Policy.TriggerC = 60
	on, _, err := Run(cfgOn, "")
	if err != nil {
		t.Fatal(err)
	}
	if on.EngagedTime == 0 {
		t.Fatal("DTM never engaged")
	}
	if on.PeakC >= off.PeakC {
		t.Fatalf("DTM should reduce peak: %g vs %g", on.PeakC, off.PeakC)
	}
	if on.PerfPenalty <= 0 {
		t.Fatal("throttling must cost performance")
	}
	if off.PerfPenalty != 0 || off.Engagements != 0 {
		t.Fatal("disabled DTM should have no penalty")
	}
}

func TestMisplacedSensorMissesEmergency(t *testing.T) {
	// §5.4: a sensor on a cool block under-reports; the oracle sees the
	// violation, the bad sensor does not.
	m := evModel(t, hotspot.OilSilicon, 1.0)
	tr := burstTrace(t)
	policy := basePolicy()
	policy.TriggerC = 1e6 // never engage: we compare observation only

	oracle, _, err := Run(Config{Model: m, Trace: tr, Policy: policy, EmergencyC: 75, InitialSteady: true}, "")
	if err != nil {
		t.Fatal(err)
	}
	bad, _, err := Run(Config{
		Model: m, Trace: tr, Policy: policy, EmergencyC: 75, InitialSteady: true,
		Sensors: []SensorView{{Block: "L2"}},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	if bad.ObservedPeakC >= oracle.ObservedPeakC-5 {
		t.Fatalf("L2 sensor should badly under-report: %g vs oracle %g", bad.ObservedPeakC, oracle.ObservedPeakC)
	}
	if oracle.PeakC != bad.PeakC {
		t.Fatal("true peak must not depend on sensing")
	}
}

func TestOilRecoversSlowerThanAir(t *testing.T) {
	// §5.1: "it takes longer to bring the processor out of potential
	// thermal emergencies in OIL-SILICON" — after an identical burst, the
	// oil configuration needs more time for the hot block to shed half of
	// its excess temperature, so DTM engagements must be longer.
	recoveryTime := func(kind hotspot.PackageKind) float64 {
		m := evModel(t, kind, 1.0)
		base := map[string]float64{"IntReg": 0.45}
		burst := map[string]float64{"IntReg": 3.0}
		pBase, err := m.PowerVector(base)
		if err != nil {
			t.Fatal(err)
		}
		pBurst, err := m.PowerVector(burst)
		if err != nil {
			t.Fatal(err)
		}
		temps := m.SteadyState(pBase).Temps
		t0 := m.NewResult(temps).BlockC("IntReg")
		if err := m.Transient(temps, pBurst, 15e-3, 1e-4); err != nil {
			t.Fatal(err)
		}
		peak := m.NewResult(temps).BlockC("IntReg")
		half := t0 + (peak-t0)/2
		// Power back to base; time the decay to the halfway point.
		const dt = 0.5e-3
		for tm := 0.0; tm < 5.0; tm += dt {
			if err := m.Transient(temps, pBase, dt, dt); err != nil {
				t.Fatal(err)
			}
			if m.NewResult(temps).BlockC("IntReg") <= half {
				return tm + dt
			}
		}
		t.Fatalf("%v never recovered", kind)
		return 0
	}
	oil := recoveryTime(hotspot.OilSilicon)
	air := recoveryTime(hotspot.AirSink)
	if oil <= 2*air {
		t.Fatalf("oil half-recovery %gs should be ≫ air %gs", oil, air)
	}
}

func TestProbeTraceRecorded(t *testing.T) {
	m := evModel(t, hotspot.AirSink, 0.5)
	tr := burstTrace(t)
	_, pts, err := Run(Config{Model: m, Trace: tr, Policy: basePolicy(), EmergencyC: 100}, "IntReg")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no probe points")
	}
	if len(pts[0].BlockC) != m.Floorplan().N() {
		t.Fatal("probe point has wrong width")
	}
}

func TestRunValidation(t *testing.T) {
	m := evModel(t, hotspot.AirSink, 0.5)
	tr := burstTrace(t)
	if _, _, err := Run(Config{Trace: tr, Policy: basePolicy(), EmergencyC: 85}, ""); err == nil {
		t.Fatal("missing model should fail")
	}
	if _, _, err := Run(Config{Model: m, Trace: tr, Policy: Policy{}, EmergencyC: 85}, ""); err == nil {
		t.Fatal("invalid policy should fail")
	}
	if _, _, err := Run(Config{Model: m, Trace: tr, Policy: basePolicy()}, ""); err == nil {
		t.Fatal("missing emergency threshold should fail")
	}
	if _, _, err := Run(Config{Model: m, Trace: tr, Policy: basePolicy(), EmergencyC: 85,
		Sensors: []SensorView{{Block: "nope"}}}, ""); err == nil {
		t.Fatal("unknown sensor block should fail")
	}
	if _, _, err := Run(Config{Model: m, Trace: tr, Policy: basePolicy(), EmergencyC: 85}, "nope"); err == nil {
		t.Fatal("unknown probe should fail")
	}
	// Trace missing a block.
	short, _ := trace.New([]string{"IntReg"}, 1e-3)
	short.Append([]float64{1})
	if _, _, err := Run(Config{Model: m, Trace: short, Policy: basePolicy(), EmergencyC: 85}, ""); err == nil {
		t.Fatal("incomplete trace should fail")
	}
	// A trace with no rows is refused up front, not by a recovered panic.
	empty, _ := trace.New(m.Floorplan().Names(), 1e-3)
	if _, _, err := Run(Config{Model: m, Trace: empty, Policy: basePolicy(), EmergencyC: 85, Duration: 0.01}, ""); err == nil || err.Error() != "dtm: empty trace" {
		t.Fatalf("empty trace: got %v, want dtm: empty trace", err)
	}
}
