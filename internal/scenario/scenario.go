// Package scenario is the declarative closed-loop DTM experiment engine for
// the paper's §5 claims at service scale: one scenario spec describes a
// workload schedule (synthetic uarch phases, inline power traces, or pulse
// trains), a set of cooling packages, on-die sensor placements and a grid of
// DTM policies, and the engine co-simulates every (package, policy) grid
// cell in closed loop — uarch pipeline → power → hotspot thermal step →
// sensors → dtm controller — so that throttling feeds back into the next
// step's power. It is the repository's one closed-loop DTM engine: the
// experiments that replay a recorded power trace under a policy run it as
// a one-cell scenario with a trace phase.
// RunGrid runs every cell as one hotspot.RunLoops job, so same-package cells
// step in lockstep through one batched solve per step, and is bit-identical
// at any worker count; internal/service exposes it as POST
// /v1/scenario[/stream] behind the compiled-model cache. See DESIGN.md §6
// for the architecture.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/dtm"
	"repro/internal/uarch"
)

// SpecError reports a rejected scenario spec field. Every validation failure
// in this package is a *SpecError so callers (the HTTP layer, the CLI) can
// attribute the rejection to a specific field.
type SpecError struct {
	// Field is the JSON path of the offending field, e.g. "phases[0].duration".
	Field string
	// Reason says what is wrong with it.
	Reason string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("scenario: %s: %s", e.Field, e.Reason)
}

func specErrf(field, format string, args ...any) *SpecError {
	return &SpecError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// Spec is one declarative closed-loop scenario: a phased workload, a set of
// cooling packages, sensor placements and a DTM policy grid. The zero values
// of optional fields take the documented defaults at Compile time.
type Spec struct {
	// Name labels the scenario in results and logs.
	Name string `json:"name,omitempty"`
	// Floorplan names a built-in floorplan ("ev6" — the default — or
	// "athlon"); FLP, when non-empty, carries an inline HotSpot .flp file
	// and overrides it. Workload phases require the EV6 block set.
	Floorplan string `json:"floorplan,omitempty"`
	FLP       string `json:"flp,omitempty"`
	// Interval is the control step (s): the loop applies one power vector,
	// advances the thermal model by one backward-Euler step and gives the
	// controller one chance to sample per interval. Default 1e-3.
	Interval float64 `json:"interval,omitempty"`
	// Duration is the total simulated time (s); 0 means the sum of the
	// phase durations. The schedule loops if Duration is longer.
	Duration float64 `json:"duration,omitempty"`
	// EmergencyC is the true thermal limit (°C) used for violation
	// accounting. Required.
	EmergencyC float64 `json:"emergency_c"`
	// InitialSteady starts every cell from the steady state of the nominal
	// (unthrottled) schedule's average power instead of from ambient.
	InitialSteady bool `json:"initial_steady,omitempty"`
	// DisableLeakageFeedback turns off the temperature-dependent leakage
	// term in workload phases (trace and pulse phases carry total power and
	// never add leakage).
	DisableLeakageFeedback bool `json:"disable_leakage_feedback,omitempty"`
	// Seed drives the synthetic instruction streams (default 2009). Phase i
	// uses Seed+i, identically in every grid cell, so cells differ only
	// through their closed-loop feedback.
	Seed int64 `json:"seed,omitempty"`
	// Power overrides the Wattch-style power model parameters for workload
	// phases.
	Power *PowerSpec `json:"power,omitempty"`
	// Phases is the workload schedule, played in order. Required.
	Phases []Phase `json:"phases"`
	// Sensors drive the controller; empty means oracle sensing of the true
	// hottest block.
	Sensors []Sensor `json:"sensors,omitempty"`
	// Packages lists the cooling configurations of the grid. Required.
	Packages []PackageSpec `json:"packages"`
	// Policies is the DTM policy grid; cells are the cross product
	// Packages × Policies.
	Policies PolicyGrid `json:"policies"`
}

// PowerSpec overrides power.DefaultWattch parameters (zero fields keep the
// defaults). Lowering ClockHz is the supported way to make workload phases
// cheap: the control interval times ClockHz is the number of CPU cycles
// co-simulated per step.
type PowerSpec struct {
	ClockHz     float64 `json:"clock_hz,omitempty"`
	IdleFrac    float64 `json:"idle_frac,omitempty"`
	ClockTreeW  float64 `json:"clock_tree_w,omitempty"`
	LeakageW    float64 `json:"leakage_w,omitempty"`
	LeakRefC    float64 `json:"leak_ref_c,omitempty"`
	LeakDoubleC float64 `json:"leak_double_c,omitempty"`
}

// Phase is one segment of the workload schedule. Exactly one of Workload,
// Trace or Pulse must be set.
type Phase struct {
	Name string `json:"name,omitempty"`
	// Duration of the phase (s). Required, positive.
	Duration float64 `json:"duration"`
	// Workload names a synthetic uarch preset ("gcc", "mcf", "art"): every
	// grid cell runs the phase's instruction stream from its start, as far
	// as its throttling lets it get in each step, so throttling changes the
	// stream's timing — the genuinely closed loop. Compile simulates the
	// stream once, unthrottled, and cells read their steps from that
	// record; a phase too long to record steps a CPU in each cell instead,
	// with the same result (DESIGN.md §6.2).
	Workload string `json:"workload,omitempty"`
	// Trace is an inline power trace sampled at the phase's own interval;
	// it loops if shorter than the phase.
	Trace *TraceSpec `json:"trace,omitempty"`
	// Pulse is a square-wave power pulse on one block.
	Pulse *PulseSpec `json:"pulse,omitempty"`
}

// TraceSpec is an inline per-block power trace: one column per distinct
// block name. Blocks it does not name dissipate nothing.
type TraceSpec struct {
	Names    []string    `json:"names"`
	Interval float64     `json:"interval"`
	Rows     [][]float64 `json:"rows"`
}

// PulseSpec is a square-wave power input: Block dissipates PeakW for OnS
// seconds, then BaseW for OffS seconds, repeating.
type PulseSpec struct {
	Block string  `json:"block"`
	PeakW float64 `json:"peak_w"`
	BaseW float64 `json:"base_w,omitempty"`
	OnS   float64 `json:"on_s"`
	OffS  float64 `json:"off_s"`
}

// Sensor places one controller input on a block, with a fixed calibration
// offset (°C).
type Sensor struct {
	Block   string  `json:"block"`
	OffsetC float64 `json:"offset_c,omitempty"`
}

// PackageSpec selects one cooling configuration of the grid; the fields
// mirror core.PackageSpec.
type PackageSpec struct {
	// Label names the package in results; defaults to Kind.
	Label string `json:"label,omitempty"`
	// Kind is "air-sink" (default), "oil-silicon" or "water-sink".
	Kind string `json:"kind,omitempty"`
	// Rconv overrides the convection resistance (K/W); 0 keeps the default.
	Rconv float64 `json:"rconv,omitempty"`
	// Direction is the oil flow direction (oil-silicon only).
	Direction string `json:"direction,omitempty"`
	// Secondary enables the secondary heat transfer path.
	Secondary bool `json:"secondary,omitempty"`
	// AmbientC is the coolant free-stream temperature (°C, default 45).
	AmbientC float64 `json:"ambient_c,omitempty"`
}

// PolicyGrid spans the DTM policy axis of the grid: the policies are the
// cross product of the non-empty lists. TriggerC is required; the other
// axes default to one entry each (engage 5 ms, sample = control interval,
// perf factor 0.5, fetch-gate).
type PolicyGrid struct {
	TriggerC        []float64 `json:"trigger_c"`
	EngageDurationS []float64 `json:"engage_s,omitempty"`
	SampleIntervalS []float64 `json:"sample_s,omitempty"`
	PerfFactor      []float64 `json:"perf_factor,omitempty"`
	// Actuators lists actuator names: "fetch-gate" or "dvfs".
	Actuators []string `json:"actuators,omitempty"`
}

// MaxCells bounds the policy grid (packages × policies): specs are client
// input, and each cell is a full co-simulation. PR 6 raised the cap from
// 1024 — the batched lockstep engine now amortizes cells through 8-wide
// solve kernels, so production-scale design sweeps fit in one spec; the
// guard remains to keep a hostile spec from requesting unbounded work.
const MaxCells = 16384

// ParseSpec decodes a JSON scenario spec with the same strictness as the
// trace decoder: unknown fields, malformed values and trailing data are
// errors, and the decoded spec is validated before it is returned.
func ParseSpec(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, specErrf("(spec)", "decode: %v", err)
	}
	if dec.More() {
		return nil, specErrf("(spec)", "trailing data after spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// finitePos reports whether v is a finite positive number.
func finitePos(v float64) bool { return v > 0 && !math.IsInf(v, 0) }

// Validate reports structural spec errors (always a *SpecError). Checks that
// need the resolved floorplan or compiled models — unknown sensor or trace
// blocks, package compilation — happen in Compile.
func (s *Spec) Validate() error {
	if s.Interval != 0 && !finitePos(s.Interval) {
		return specErrf("interval", "must be a positive finite duration, got %g", s.Interval)
	}
	if s.Duration != 0 && !finitePos(s.Duration) {
		return specErrf("duration", "must be a positive finite duration, got %g", s.Duration)
	}
	if !finitePos(s.EmergencyC) {
		return specErrf("emergency_c", "must be a positive finite temperature, got %g", s.EmergencyC)
	}
	if len(s.Phases) == 0 {
		return specErrf("phases", "a scenario needs at least one phase")
	}
	for i, p := range s.Phases {
		if err := p.validate(i); err != nil {
			return err
		}
	}
	for i, sv := range s.Sensors {
		if sv.Block == "" {
			return specErrf(fmt.Sprintf("sensors[%d].block", i), "empty block name")
		}
		if math.IsNaN(sv.OffsetC) || math.IsInf(sv.OffsetC, 0) {
			return specErrf(fmt.Sprintf("sensors[%d].offset_c", i), "non-finite offset")
		}
	}
	if len(s.Packages) == 0 {
		return specErrf("packages", "a scenario needs at least one package")
	}
	nPolicies, err := s.Policies.validate()
	if err != nil {
		return err
	}
	if cells := len(s.Packages) * nPolicies; cells > MaxCells {
		return specErrf("policies", "grid has %d cells, limit %d", cells, MaxCells)
	}
	return nil
}

func (p Phase) validate(i int) error {
	field := func(f string) string { return fmt.Sprintf("phases[%d].%s", i, f) }
	if !finitePos(p.Duration) {
		return specErrf(field("duration"), "must be a positive finite duration, got %g", p.Duration)
	}
	sources := 0
	if p.Workload != "" {
		sources++
		if _, ok := uarch.Preset(p.Workload); !ok {
			return specErrf(field("workload"), "unknown workload %q (have gcc, mcf, art)", p.Workload)
		}
	}
	if p.Trace != nil {
		sources++
		if len(p.Trace.Names) == 0 {
			return specErrf(field("trace.names"), "no block names")
		}
		seen := make(map[string]bool, len(p.Trace.Names))
		for j, name := range p.Trace.Names {
			if seen[name] {
				return specErrf(fmt.Sprintf("phases[%d].trace.names[%d]", i, j), "duplicate block %q", name)
			}
			seen[name] = true
		}
		if !finitePos(p.Trace.Interval) {
			return specErrf(field("trace.interval"), "must be a positive finite duration, got %g", p.Trace.Interval)
		}
		if len(p.Trace.Rows) == 0 {
			return specErrf(field("trace.rows"), "no power rows")
		}
		for r, row := range p.Trace.Rows {
			if len(row) != len(p.Trace.Names) {
				return specErrf(fmt.Sprintf("phases[%d].trace.rows[%d]", i, r),
					"row has %d values, want %d", len(row), len(p.Trace.Names))
			}
			for c, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					return specErrf(fmt.Sprintf("phases[%d].trace.rows[%d][%d]", i, r, c),
						"invalid power %g", v)
				}
			}
		}
	}
	if p.Pulse != nil {
		sources++
		if p.Pulse.Block == "" {
			return specErrf(field("pulse.block"), "empty block name")
		}
		for _, w := range []struct {
			name string
			v    float64
		}{{"peak_w", p.Pulse.PeakW}, {"base_w", p.Pulse.BaseW}} {
			if math.IsNaN(w.v) || math.IsInf(w.v, 0) || w.v < 0 {
				return specErrf(field("pulse."+w.name), "invalid power %g", w.v)
			}
		}
		if !finitePos(p.Pulse.OnS) {
			return specErrf(field("pulse.on_s"), "must be a positive finite duration, got %g", p.Pulse.OnS)
		}
		if p.Pulse.OffS < 0 || math.IsNaN(p.Pulse.OffS) || math.IsInf(p.Pulse.OffS, 0) {
			return specErrf(field("pulse.off_s"), "invalid duration %g", p.Pulse.OffS)
		}
	}
	if sources != 1 {
		return specErrf(fmt.Sprintf("phases[%d]", i), "need exactly one of workload, trace or pulse (got %d)", sources)
	}
	return nil
}

// validate checks the grid lists and returns the number of policies the grid
// expands to.
func (g PolicyGrid) validate() (int, error) {
	if len(g.TriggerC) == 0 {
		return 0, specErrf("policies.trigger_c", "a scenario needs at least one trigger temperature")
	}
	checkList := func(field string, vs []float64, ok func(float64) bool, what string) error {
		for i, v := range vs {
			if !ok(v) {
				return specErrf(fmt.Sprintf("policies.%s[%d]", field, i), "%s, got %g", what, v)
			}
		}
		return nil
	}
	if err := checkList("trigger_c", g.TriggerC, finitePos, "trigger must be a positive finite temperature"); err != nil {
		return 0, err
	}
	if err := checkList("engage_s", g.EngageDurationS, finitePos, "engagement must be a positive finite duration"); err != nil {
		return 0, err
	}
	if err := checkList("sample_s", g.SampleIntervalS, finitePos, "sampling interval must be a positive finite duration"); err != nil {
		return 0, err
	}
	if err := checkList("perf_factor", g.PerfFactor, func(v float64) bool { return v > 0 && v <= 1 }, "performance factor must be in (0,1]"); err != nil {
		return 0, err
	}
	for i, a := range g.Actuators {
		if _, err := parseActuator(a); err != nil {
			return 0, specErrf(fmt.Sprintf("policies.actuators[%d]", i), "%v", err)
		}
	}
	n := len(g.TriggerC)
	for _, l := range []int{len(g.EngageDurationS), len(g.SampleIntervalS), len(g.PerfFactor), len(g.Actuators)} {
		if l > 0 {
			n *= l
		}
	}
	return n, nil
}

func parseActuator(s string) (dtm.Actuator, error) {
	switch s {
	case "", "fetch-gate":
		return dtm.FetchGate, nil
	case "dvfs":
		return dtm.DVFS, nil
	default:
		return 0, fmt.Errorf("unknown actuator %q (have fetch-gate, dvfs)", s)
	}
}

// policies expands the grid into the deterministic cross product: triggers
// outermost, then engagement durations, sampling intervals, performance
// factors and actuators.
func (g PolicyGrid) policies(defaultSample float64) ([]dtm.Policy, error) {
	engage := g.EngageDurationS
	if len(engage) == 0 {
		engage = []float64{5e-3}
	}
	sample := g.SampleIntervalS
	if len(sample) == 0 {
		sample = []float64{defaultSample}
	}
	perf := g.PerfFactor
	if len(perf) == 0 {
		perf = []float64{0.5}
	}
	acts := g.Actuators
	if len(acts) == 0 {
		acts = []string{"fetch-gate"}
	}
	var out []dtm.Policy
	for _, trig := range g.TriggerC {
		for _, e := range engage {
			for _, sm := range sample {
				for _, f := range perf {
					for _, a := range acts {
						act, err := parseActuator(a)
						if err != nil {
							return nil, err
						}
						out = append(out, dtm.Policy{
							TriggerC:       trig,
							EngageDuration: e,
							SampleInterval: sm,
							PerfFactor:     f,
							Actuator:       act,
						})
					}
				}
			}
		}
	}
	return out, nil
}
