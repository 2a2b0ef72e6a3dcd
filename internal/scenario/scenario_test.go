package scenario

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/floorplan"
)

// validSpec is a minimal well-formed pulse scenario.
func validSpec() *Spec {
	return &Spec{
		Name:       "t",
		Interval:   1e-3,
		EmergencyC: 80,
		Phases: []Phase{{
			Duration: 0.02,
			Pulse:    &PulseSpec{Block: "IntReg", PeakW: 3, OnS: 5e-3, OffS: 5e-3},
		}},
		Packages: []PackageSpec{{Kind: "air-sink", Rconv: 1.0}},
		Policies: PolicyGrid{TriggerC: []float64{60}},
	}
}

// wantSpecError asserts err is a *SpecError anchored at the given field.
func wantSpecError(t *testing.T, err error, field string) {
	t.Helper()
	if err == nil {
		t.Fatalf("want *SpecError on %q, got nil", field)
	}
	var se *SpecError
	if !errors.As(err, &se) {
		t.Fatalf("want *SpecError on %q, got %T: %v", field, err, err)
	}
	if se.Field != field {
		t.Fatalf("want error on field %q, got %q (%v)", field, se.Field, se)
	}
}

// TestInlineFLPBlockCap: an inline floorplan of floorplan.MaxInlineBlocks
// blocks (the 128×128 named grid's count) resolves; one more block is a
// *SpecError at flp.
func TestInlineFLPBlockCap(t *testing.T) {
	var sb strings.Builder
	if err := floorplan.GridDie(16e-3, 16e-3, 128, 128).Write(&sb); err != nil {
		t.Fatal(err)
	}
	fp, err := resolveFloorplan(&Spec{FLP: sb.String()})
	if err != nil || fp.N() != floorplan.MaxInlineBlocks {
		t.Fatalf("%d inline blocks: %v", floorplan.MaxInlineBlocks, err)
	}
	sb.WriteString("extra\t1e-3\t1e-3\t20e-3\t0\n")
	_, err = resolveFloorplan(&Spec{FLP: sb.String()})
	wantSpecError(t, err, "flp")
	if !strings.Contains(err.Error(), "more than 16384 blocks") {
		t.Fatalf("error %q does not name the cap", err)
	}
}

// TestHostileSpecsReturnTypedErrors covers the satellite checklist: NaN
// trigger, empty phase list, unknown sensor block, zero-duration phase — all
// rejected with a *SpecError naming the field.
func TestHostileSpecsReturnTypedErrors(t *testing.T) {
	t.Run("nan trigger", func(t *testing.T) {
		s := validSpec()
		s.Policies.TriggerC = []float64{math.NaN()}
		wantSpecError(t, s.Validate(), "policies.trigger_c[0]")
	})
	t.Run("empty phase list", func(t *testing.T) {
		s := validSpec()
		s.Phases = nil
		wantSpecError(t, s.Validate(), "phases")
	})
	t.Run("zero-duration phase", func(t *testing.T) {
		s := validSpec()
		s.Phases[0].Duration = 0
		wantSpecError(t, s.Validate(), "phases[0].duration")
	})
	t.Run("unknown sensor block", func(t *testing.T) {
		s := validSpec()
		s.Sensors = []Sensor{{Block: "NoSuchBlock"}}
		_, err := Compile(s, Options{})
		wantSpecError(t, err, "sensors[0].block")
	})
	t.Run("infinite trigger", func(t *testing.T) {
		s := validSpec()
		s.Policies.TriggerC = []float64{math.Inf(1)}
		wantSpecError(t, s.Validate(), "policies.trigger_c[0]")
	})
	t.Run("no trigger", func(t *testing.T) {
		s := validSpec()
		s.Policies.TriggerC = nil
		wantSpecError(t, s.Validate(), "policies.trigger_c")
	})
	t.Run("no packages", func(t *testing.T) {
		s := validSpec()
		s.Packages = nil
		wantSpecError(t, s.Validate(), "packages")
	})
	t.Run("missing emergency", func(t *testing.T) {
		s := validSpec()
		s.EmergencyC = 0
		wantSpecError(t, s.Validate(), "emergency_c")
	})
	t.Run("two sources in one phase", func(t *testing.T) {
		s := validSpec()
		s.Phases[0].Workload = "gcc"
		wantSpecError(t, s.Validate(), "phases[0]")
	})
	t.Run("unknown workload", func(t *testing.T) {
		s := validSpec()
		s.Phases[0].Pulse = nil
		s.Phases[0].Workload = "doom"
		wantSpecError(t, s.Validate(), "phases[0].workload")
	})
	t.Run("negative trace power", func(t *testing.T) {
		s := validSpec()
		s.Phases[0].Pulse = nil
		s.Phases[0].Trace = &TraceSpec{Names: []string{"IntReg"}, Interval: 1e-3, Rows: [][]float64{{-1}}}
		wantSpecError(t, s.Validate(), "phases[0].trace.rows[0][0]")
	})
	t.Run("ragged trace row", func(t *testing.T) {
		s := validSpec()
		s.Phases[0].Pulse = nil
		s.Phases[0].Trace = &TraceSpec{Names: []string{"IntReg"}, Interval: 1e-3, Rows: [][]float64{{1, 2}}}
		wantSpecError(t, s.Validate(), "phases[0].trace.rows[0]")
	})
	t.Run("duplicate trace block", func(t *testing.T) {
		s := validSpec()
		s.Phases[0].Pulse = nil
		s.Phases[0].Trace = &TraceSpec{Names: []string{"IntReg", "IntReg"}, Interval: 1e-3, Rows: [][]float64{{1, 2}}}
		wantSpecError(t, s.Validate(), "phases[0].trace.names[1]")
	})
	t.Run("unknown trace block", func(t *testing.T) {
		s := validSpec()
		s.Phases[0].Pulse = nil
		s.Phases[0].Trace = &TraceSpec{Names: []string{"Nope"}, Interval: 1e-3, Rows: [][]float64{{1}}}
		_, err := Compile(s, Options{})
		wantSpecError(t, err, "phases[0].trace.names[0]")
	})
	t.Run("unknown pulse block", func(t *testing.T) {
		s := validSpec()
		s.Phases[0].Pulse.Block = "Nope"
		_, err := Compile(s, Options{})
		wantSpecError(t, err, "phases[0].pulse.block")
	})
	t.Run("unknown package kind", func(t *testing.T) {
		s := validSpec()
		s.Packages[0].Kind = "peltier"
		_, err := Compile(s, Options{})
		wantSpecError(t, err, "packages[0]")
	})
	t.Run("unknown actuator", func(t *testing.T) {
		s := validSpec()
		s.Policies.Actuators = []string{"prayer"}
		wantSpecError(t, s.Validate(), "policies.actuators[0]")
	})
	t.Run("perf factor out of range", func(t *testing.T) {
		s := validSpec()
		s.Policies.PerfFactor = []float64{1.5}
		wantSpecError(t, s.Validate(), "policies.perf_factor[0]")
	})
	t.Run("grid too large", func(t *testing.T) {
		s := validSpec()
		s.Policies.TriggerC = make([]float64, MaxCells+1)
		for i := range s.Policies.TriggerC {
			s.Policies.TriggerC[i] = 60
		}
		wantSpecError(t, s.Validate(), "policies")
	})
	t.Run("excessive steps", func(t *testing.T) {
		s := validSpec()
		s.Duration = 1e6
		_, err := Compile(s, Options{})
		wantSpecError(t, err, "duration")
	})
	t.Run("unknown floorplan", func(t *testing.T) {
		s := validSpec()
		s.Floorplan = "pentium"
		_, err := Compile(s, Options{})
		wantSpecError(t, err, "floorplan")
	})
}

// TestParseSpecStrictness: unknown fields, trailing data and malformed JSON
// are rejected, mirroring the trace decoder's strictness.
func TestParseSpecStrictness(t *testing.T) {
	good := `{
		"interval": 1e-3, "emergency_c": 80,
		"phases": [{"duration": 0.02, "pulse": {"block": "IntReg", "peak_w": 3, "on_s": 5e-3, "off_s": 5e-3}}],
		"packages": [{"kind": "air-sink", "rconv": 1.0}],
		"policies": {"trigger_c": [60]}
	}`
	if _, err := ParseSpec(strings.NewReader(good)); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for name, body := range map[string]string{
		"unknown field":    `{"emergency_c": 80, "bogus": 1}`,
		"trailing data":    good + ` {"more": true}`,
		"malformed":        `{"emergency_c": `,
		"huge number":      `{"emergency_c": 1e999}`,
		"wrong type":       `{"emergency_c": "hot"}`,
		"empty stream":     ``,
		"array not object": `[1,2,3]`,
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseSpec(strings.NewReader(body)); err == nil {
				t.Fatalf("hostile input accepted: %s", body)
			} else {
				var se *SpecError
				if !errors.As(err, &se) {
					t.Fatalf("want *SpecError, got %T: %v", err, err)
				}
			}
		})
	}
}

// TestGridExpansionDeterministic: the cell order is the documented cross
// product and defaults fill the unspecified axes.
func TestGridExpansionDeterministic(t *testing.T) {
	s := validSpec()
	s.Packages = append(s.Packages, PackageSpec{Label: "oil", Kind: "oil-silicon", Rconv: 1.0})
	s.Policies = PolicyGrid{
		TriggerC:        []float64{55, 60},
		EngageDurationS: []float64{5e-3, 10e-3},
		Actuators:       []string{"fetch-gate", "dvfs"},
	}
	c, err := Compile(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cells := c.Cells()
	if len(cells) != 2*2*2*2 {
		t.Fatalf("want 16 cells, got %d", len(cells))
	}
	if cells[0].Package != "AIR-SINK" || cells[8].Package != "oil" {
		t.Fatalf("package order wrong: %q, %q", cells[0].Package, cells[8].Package)
	}
	// Within a package: trigger outermost, then engage, then actuator.
	p := cells[:8]
	if p[0].Policy.TriggerC != 55 || p[4].Policy.TriggerC != 60 {
		t.Fatal("trigger axis order wrong")
	}
	if p[0].Policy.EngageDuration != 5e-3 || p[2].Policy.EngageDuration != 10e-3 {
		t.Fatal("engage axis order wrong")
	}
	if p[1].Policy.Actuator.String() != "dvfs" {
		t.Fatal("actuator axis order wrong")
	}
	for _, cell := range cells {
		if cell.Policy.SampleInterval != 1e-3 || cell.Policy.PerfFactor != 0.5 {
			t.Fatal("defaults not applied")
		}
	}
}
