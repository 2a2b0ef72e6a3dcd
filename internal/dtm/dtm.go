// Package dtm implements dynamic thermal management: a sensor-driven
// controller with a trigger threshold, engagement duration and sampling
// interval, driving a throttling actuator (fetch gating or DVFS) in closed
// loop with the thermal model. It quantifies the paper's §5 claims: the same
// policy behaves differently under AIR-SINK and OIL-SILICON (engagement
// duration, violation coverage, performance penalty), and badly placed
// sensors miss emergencies.
package dtm

import (
	"fmt"
	"io"
	"math"

	"repro/internal/hotspot"
	"repro/internal/trace"
)

// Actuator describes how engaging DTM reduces power.
type Actuator int

const (
	// FetchGate halves activity: dynamic power scales by the throttle
	// factor, performance by the same factor.
	FetchGate Actuator = iota
	// DVFS scales voltage and frequency together: power scales roughly
	// cubically with the performance factor.
	DVFS
)

func (a Actuator) String() string {
	switch a {
	case FetchGate:
		return "fetch-gate"
	case DVFS:
		return "dvfs"
	default:
		return fmt.Sprintf("Actuator(%d)", int(a))
	}
}

// Policy is a DTM controller configuration.
type Policy struct {
	// TriggerC is the sensor temperature that engages DTM (°C).
	TriggerC float64
	// EngageDuration is how long DTM stays engaged after a trigger (s).
	EngageDuration float64
	// SampleInterval is the sensor sampling period (s).
	SampleInterval float64
	// PerfFactor is the relative performance while engaged (0, 1]:
	// fetch-gating at 0.5 halves throughput.
	PerfFactor float64
	// Actuator selects the power/performance relationship.
	Actuator Actuator
}

// Validate reports policy configuration errors.
func (p Policy) Validate() error {
	if p.TriggerC <= 0 {
		return fmt.Errorf("dtm: non-positive trigger %g", p.TriggerC)
	}
	if p.EngageDuration <= 0 {
		return fmt.Errorf("dtm: non-positive engagement duration %g", p.EngageDuration)
	}
	if p.SampleInterval <= 0 {
		return fmt.Errorf("dtm: non-positive sample interval %g", p.SampleInterval)
	}
	if p.PerfFactor <= 0 || p.PerfFactor > 1 {
		return fmt.Errorf("dtm: performance factor %g outside (0,1]", p.PerfFactor)
	}
	return nil
}

// PowerScale returns the dynamic-power multiplier while engaged: PerfFactor
// for fetch gating (activity scales with throughput), PerfFactor³ for DVFS
// (P ∝ f·V² with V ∝ f).
func (p Policy) PowerScale() float64 {
	switch p.Actuator {
	case DVFS:
		return math.Pow(p.PerfFactor, 3)
	default:
		return p.PerfFactor
	}
}

// SensorView tells the controller which block a sensor reads and with what
// offset. An empty sensor list gives the controller oracle knowledge of the
// true hottest block.
type SensorView struct {
	Block   string
	OffsetC float64
}

// Config describes one closed-loop run.
type Config struct {
	Model *hotspot.Model
	// Trace is the nominal per-block power schedule. It loops if shorter
	// than Duration.
	Trace *trace.PowerTrace
	// Sensors drive the controller; empty means oracle sensing.
	Sensors []SensorView
	Policy  Policy
	// EmergencyC is the true thermal limit used for violation accounting.
	EmergencyC float64
	// Duration of the run (s). Zero means one pass of the trace.
	Duration float64
	// InitialSteady starts from the steady state of the trace's average
	// power rather than from ambient.
	InitialSteady bool
}

// Metrics summarizes a closed-loop run.
type Metrics struct {
	Duration float64
	// EngagedTime is total time DTM was throttling (s).
	EngagedTime float64
	// Engagements counts distinct trigger events.
	Engagements int
	// ViolationTime is total time the true hottest block exceeded
	// EmergencyC (s) — nonzero violation time under an active policy means
	// the sensors/policy missed emergencies.
	ViolationTime float64
	// PeakC is the true peak temperature reached (°C).
	PeakC float64
	// PerfPenalty is the throughput lost to throttling, as a fraction of
	// the run (0 = none).
	PerfPenalty float64
	// ObservedPeakC is the hottest sensor reading seen by the controller.
	ObservedPeakC float64
}

// Run simulates the closed loop and returns metrics plus the true
// temperature trace of the named probe block (may be "" to skip).
//
// The simulation advances in steps of the trace interval; the policy's
// SampleInterval and EngageDuration are quantized to whole steps by the
// Controller contract (round half-up, minimum one step).
func Run(cfg Config, probeBlock string) (Metrics, []hotspot.TracePoint, error) {
	if cfg.Model == nil || cfg.Trace == nil {
		return Metrics{}, nil, fmt.Errorf("dtm: need model and trace")
	}
	if len(cfg.Trace.Rows) == 0 {
		return Metrics{}, nil, fmt.Errorf("dtm: empty trace")
	}
	if cfg.EmergencyC <= 0 {
		return Metrics{}, nil, fmt.Errorf("dtm: non-positive emergency threshold")
	}
	fp := cfg.Model.Floorplan()
	// Resolve trace columns and sensor blocks to floorplan order.
	cols := make([]int, fp.N())
	for bi, name := range fp.Names() {
		c := cfg.Trace.Column(name)
		if c < 0 {
			return Metrics{}, nil, fmt.Errorf("dtm: trace lacks block %q", name)
		}
		cols[bi] = c
	}
	sensorIdx := make([]int, len(cfg.Sensors))
	for i, s := range cfg.Sensors {
		bi := fp.Index(s.Block)
		if bi < 0 {
			return Metrics{}, nil, fmt.Errorf("dtm: sensor on unknown block %q", s.Block)
		}
		sensorIdx[i] = bi
	}
	probe := -1
	if probeBlock != "" {
		probe = fp.Index(probeBlock)
		if probe < 0 {
			return Metrics{}, nil, fmt.Errorf("dtm: unknown probe block %q", probeBlock)
		}
	}

	duration := cfg.Duration
	if duration == 0 {
		duration = cfg.Trace.Duration()
	}
	dt := cfg.Trace.Interval
	ctrl, err := NewController(cfg.Policy, dt)
	if err != nil {
		return Metrics{}, nil, err
	}
	steps := int(math.Round(duration / dt))
	if steps < 1 {
		steps = 1
	}

	// Initial condition.
	var temps []float64
	if cfg.InitialSteady {
		avg := cfg.Trace.Average()
		p := make([]float64, fp.N())
		for bi := range p {
			p[bi] = avg[cols[bi]]
		}
		vec, err := cfg.Model.BlockPowerVector(p)
		if err != nil {
			return Metrics{}, nil, err
		}
		temps = cfg.Model.SteadyState(vec).Temps
	} else {
		temps = cfg.Model.AmbientState()
	}

	var m Metrics
	m.Duration = duration
	m.PeakC = math.Inf(-1)
	m.ObservedPeakC = math.Inf(-1)

	scale := cfg.Policy.PowerScale()
	blocksC := make([]float64, fp.N())
	var points []hotspot.TracePoint
	// Time metrics are counted in steps and multiplied by dt once at the
	// end: summing dt per step would drift.
	var engagedSteps, violationSteps int

	// The loop is one closed-loop job on the hotspot stepping core: its
	// power fill reads the live state before every step of dt.
	step := 0
	loop := hotspot.LoopJob{Model: cfg.Model, Temps: temps, Step: dt, Power: func(blockPower []float64) error {
		if step == steps {
			return io.EOF
		}
		t := float64(step) * dt
		cfg.Model.BlocksCInto(temps, blocksC)

		// True state accounting.
		hot := blocksC[0]
		for _, v := range blocksC {
			if v > hot {
				hot = v
			}
		}
		if hot > m.PeakC {
			m.PeakC = hot
		}
		if hot > cfg.EmergencyC {
			violationSteps++
		}
		if probe >= 0 {
			points = append(points, hotspot.TracePoint{Time: t, BlockC: append([]float64(nil), blocksC...)})
		}

		// Controller: sample sensors on schedule.
		if ctrl.ShouldSample(step) {
			obs := math.Inf(-1)
			if len(sensorIdx) == 0 {
				obs = hot
			} else {
				for i, bi := range sensorIdx {
					if v := blocksC[bi] + cfg.Sensors[i].OffsetC; v > obs {
						obs = v
					}
				}
			}
			if obs > m.ObservedPeakC {
				m.ObservedPeakC = obs
			}
			ctrl.Observe(step, obs)
		}

		// Apply power (throttled while engaged).
		engaged := ctrl.Engaged(step)
		row := cfg.Trace.Rows[step%len(cfg.Trace.Rows)]
		for bi := range blockPower {
			p := row[cols[bi]]
			if engaged {
				p *= scale
			}
			blockPower[bi] = p
		}
		if engaged {
			engagedSteps++
		}
		step++
		return nil
	}}
	if err := hotspot.RunLoops([]hotspot.LoopJob{loop}, 1)[0]; err != nil {
		return Metrics{}, nil, err
	}
	m.Engagements = ctrl.Engagements()
	m.EngagedTime = float64(engagedSteps) * dt
	m.ViolationTime = float64(violationSteps) * dt
	m.PerfPenalty = m.EngagedTime * (1 - cfg.Policy.PerfFactor) / duration
	return m, points, nil
}
