// Package dtm holds the dynamic thermal management policy and its control
// law: a Policy (trigger threshold, engagement duration, sampling interval,
// performance factor) with a throttling Actuator (fetch gating or DVFS), and
// the step-quantized Controller that samples, triggers and latches
// engagement. It runs no simulation: internal/scenario closes the loop with
// the thermal model for the paper's §5 study.
package dtm

import (
	"fmt"
	"math"
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
