package dtm

import (
	"fmt"
	"math"
)

// Controller is the step-quantized DTM control law that every grid cell of
// the closed-loop scenario engine (internal/scenario) runs: it samples a
// sensor observation on a fixed step schedule and latches engagement for a
// fixed number of steps after each trigger.
//
// Quantization contract: the controller advances in units of the simulation
// step dt (the scenario's control interval). Policy.SampleInterval and
// Policy.EngageDuration are quantized to a whole number of steps by rounding
// half-up (math.Round), with a minimum of one step. A 3.3e-4 s sampling
// interval on 1e-4 s steps therefore samples every 3 steps (3.0e-4 s
// effective), and 3.5e-4 s rounds up to 4 steps. Earlier versions quantized
// implicitly through floating-point time accumulation, which drifted at
// non-integer interval/step ratios; the rounding here is the documented
// behaviour, and SampleSteps/EngageSteps expose the effective schedule.
type Controller struct {
	policy       Policy
	dt           float64
	sampleSteps  int
	engageSteps  int
	engagedUntil int // first step index no longer engaged
	engagements  int
}

// NewController validates the policy and quantizes its intervals to the
// simulation step dt (seconds, must be positive and finite).
func NewController(p Policy, dt float64) (*Controller, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !(dt > 0) || math.IsInf(dt, 0) {
		return nil, fmt.Errorf("dtm: non-positive step %g", dt)
	}
	return &Controller{
		policy:      p,
		dt:          dt,
		sampleSteps: quantizeSteps(p.SampleInterval, dt),
		engageSteps: quantizeSteps(p.EngageDuration, dt),
	}, nil
}

// quantizeSteps converts a duration to whole steps, rounding half-up with a
// floor of one step.
func quantizeSteps(d, dt float64) int {
	n := int(math.Round(d / dt))
	if n < 1 {
		n = 1
	}
	return n
}

// SampleSteps returns the effective sampling period in steps.
func (c *Controller) SampleSteps() int { return c.sampleSteps }

// EngageSteps returns the effective engagement duration in steps.
func (c *Controller) EngageSteps() int { return c.engageSteps }

// ShouldSample reports whether the controller samples its sensors at the
// given step (step 0 always samples).
func (c *Controller) ShouldSample(step int) bool { return step%c.sampleSteps == 0 }

// Observe feeds one sampled observation (the hottest sensor reading, °C) to
// the controller at the given step. An observation at or above the trigger
// threshold engages DTM for EngageSteps steps starting at this step;
// re-triggering while engaged extends the engagement without counting a new
// engagement event.
func (c *Controller) Observe(step int, obsC float64) {
	if obsC >= c.policy.TriggerC {
		if step >= c.engagedUntil {
			c.engagements++
		}
		c.engagedUntil = step + c.engageSteps
	}
}

// Engaged reports whether DTM throttles during the given step. A trigger
// observed at step k throttles the power applied over [k·dt, (k+1)·dt) — the
// thermal effect of that actuation is first visible in the temperatures the
// sensors read at step k+1 (one-step-delayed feedback).
func (c *Controller) Engaged(step int) bool { return step < c.engagedUntil }

// Engagements returns the number of distinct trigger events so far.
func (c *Controller) Engagements() int { return c.engagements }
