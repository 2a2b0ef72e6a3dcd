// Package ode provides the explicit time integrators used for transient
// thermal simulation (the paper's §4.1 transient studies; kernels layer of
// DESIGN.md §1). The adaptive fourth-order Runge-Kutta integrator mirrors
// the scheme used by the original HotSpot tool: a classic RK4 step with
// step doubling for local error control.
//
// Implicit (backward-Euler) stepping for stiff linear RC systems lives in
// package rcnet, where the linear structure of the problem allows a direct
// solve instead of Newton iteration.
package ode

import (
	"fmt"
	"math"
)

// Derivs computes dy/dt at time t into dst. dst has the same length as y and
// is reused across calls; implementations must fully overwrite it.
type Derivs func(t float64, y, dst []float64)

// RK4Step advances y by one classic fourth-order Runge-Kutta step of size h.
// The scratch buffer must either be nil or provide at least 5·len(y) floats.
func RK4Step(f Derivs, t float64, y []float64, h float64, scratch []float64) {
	n := len(y)
	if scratch == nil || len(scratch) < 5*n {
		scratch = make([]float64, 5*n)
	}
	k1 := scratch[0*n : 1*n]
	k2 := scratch[1*n : 2*n]
	k3 := scratch[2*n : 3*n]
	k4 := scratch[3*n : 4*n]
	tmp := scratch[4*n : 5*n]

	f(t, y, k1)
	for i := 0; i < n; i++ {
		tmp[i] = y[i] + 0.5*h*k1[i]
	}
	f(t+0.5*h, tmp, k2)
	for i := 0; i < n; i++ {
		tmp[i] = y[i] + 0.5*h*k2[i]
	}
	f(t+0.5*h, tmp, k3)
	for i := 0; i < n; i++ {
		tmp[i] = y[i] + h*k3[i]
	}
	f(t+h, tmp, k4)
	for i := 0; i < n; i++ {
		y[i] += h / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
	}
}

// AdaptiveOptions configure AdaptiveRK4.
type AdaptiveOptions struct {
	// AbsTol is the per-step absolute error tolerance (default 1e-4).
	AbsTol float64
	// MaxStep caps the step size the controller may grow to (0 = no cap).
	MaxStep float64
}

// maxAdaptiveSteps bounds the accepted steps of one AdaptiveRK4 call.
const maxAdaptiveSteps = 10_000_000

// Stats reports what the adaptive integrator did.
type Stats struct {
	Accepted int
	Rejected int
	LastStep float64
}

// AdaptiveRK4 integrates y' = f(t, y) from t0 to t0+duration using RK4 with
// step doubling: each step is computed once with h and once with two h/2
// substeps; the difference estimates the local error. On acceptance y is
// advanced with the more accurate fine solution (with the usual 4th-order
// local extrapolation). This is the HotSpot-style integrator used for all
// non-stiff transients in this repository. The first step is duration/16,
// clamped to MaxStep; a step halved below duration·1e-12 is an error rather
// than silent under-stepping.
func AdaptiveRK4(f Derivs, t0 float64, y []float64, duration float64, opt AdaptiveOptions) (Stats, error) {
	var st Stats
	if duration <= 0 {
		return st, fmt.Errorf("ode: non-positive duration %g", duration)
	}
	if opt.AbsTol == 0 {
		opt.AbsTol = 1e-4
	}
	minStep, h := duration*1e-12, duration/16
	if opt.MaxStep > 0 && h > opt.MaxStep {
		h = opt.MaxStep
	}
	n := len(y)
	scratch := make([]float64, 5*n)
	coarse := make([]float64, n)
	fine := make([]float64, n)

	t := t0
	end := t0 + duration
	for t < end-1e-15*duration {
		if h > end-t {
			h = end - t
		}
		copy(coarse, y)
		RK4Step(f, t, coarse, h, scratch)
		copy(fine, y)
		RK4Step(f, t, fine, h/2, scratch)
		RK4Step(f, t+h/2, fine, h/2, scratch)
		var errMax float64
		for i := 0; i < n; i++ {
			if e := math.Abs(fine[i] - coarse[i]); e > errMax {
				errMax = e
			}
		}
		if errMax <= opt.AbsTol {
			// Accept, with local extrapolation: err(fine) ≈ err(coarse)/16.
			for i := 0; i < n; i++ {
				y[i] = fine[i] + (fine[i]-coarse[i])/15
			}
			t += h
			st.Accepted++
			st.LastStep = h
			if st.Accepted > maxAdaptiveSteps {
				return st, fmt.Errorf("ode: exceeded %d steps", maxAdaptiveSteps)
			}
			// Grow cautiously, honoring the step-size cap.
			if errMax < opt.AbsTol/32 {
				h *= 2
			}
			if opt.MaxStep > 0 && h > opt.MaxStep {
				h = opt.MaxStep
			}
		} else {
			st.Rejected++
			h /= 2
			if h < minStep {
				return st, fmt.Errorf("ode: step size underflow at t=%g (h=%g, err=%g)", t, h, errMax)
			}
		}
	}
	return st, nil
}

// FixedRK4 integrates with a constant step size, taking ceil(duration/h)
// steps (the final step is shortened to land exactly on the end time).
func FixedRK4(f Derivs, t0 float64, y []float64, duration, h float64) error {
	if duration <= 0 || h <= 0 {
		return fmt.Errorf("ode: non-positive duration or step")
	}
	scratch := make([]float64, 5*len(y))
	t := t0
	end := t0 + duration
	for t < end-1e-15*duration {
		step := h
		if step > end-t {
			step = end - t
		}
		RK4Step(f, t, y, step, scratch)
		t += step
	}
	return nil
}
