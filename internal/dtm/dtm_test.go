package dtm

import "testing"

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
