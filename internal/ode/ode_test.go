package ode

import (
	"math"
	"testing"
	"testing/quick"
)

// expDecay is y' = -k y with analytic solution y0·exp(-k t).
func expDecay(k float64) Derivs {
	return func(t float64, y, dst []float64) {
		for i := range y {
			dst[i] = -k * y[i]
		}
	}
}

func TestRK4StepOrder(t *testing.T) {
	// One RK4 step on y'=-y from y=1 matches exp(-h) to O(h^5).
	y := []float64{1}
	h := 0.1
	RK4Step(expDecay(1), 0, y, h, nil)
	want := math.Exp(-h)
	if math.Abs(y[0]-want) > 1e-6 {
		t.Fatalf("RK4 step got %g want %g", y[0], want)
	}
	// Halving the step must reduce the local error by roughly 2^5 (the
	// method is 4th order, so local truncation error is O(h^5)).
	y2 := []float64{1}
	RK4Step(expDecay(1), 0, y2, h/2, nil)
	errFull := math.Abs(y[0] - want)
	errHalf := math.Abs(y2[0] - math.Exp(-h/2))
	if errHalf > errFull/16 {
		t.Fatalf("order check failed: err(h)=%g err(h/2)=%g", errFull, errHalf)
	}
}

func TestFixedRK4Decay(t *testing.T) {
	y := []float64{2, 4}
	if err := FixedRK4(expDecay(3), 0, y, 1.0, 0.001); err != nil {
		t.Fatal(err)
	}
	for i, y0 := range []float64{2, 4} {
		want := y0 * math.Exp(-3)
		if math.Abs(y[i]-want) > 1e-9 {
			t.Fatalf("y[%d]=%g want %g", i, y[i], want)
		}
	}
}

func TestAdaptiveRK4Decay(t *testing.T) {
	y := []float64{1}
	st, err := AdaptiveRK4(expDecay(5), 0, y, 2.0, AdaptiveOptions{AbsTol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-10)
	if math.Abs(y[0]-want) > 1e-7 {
		t.Fatalf("adaptive got %g want %g (stats %+v)", y[0], want, st)
	}
	if st.Accepted == 0 {
		t.Fatal("no accepted steps")
	}
}

func TestAdaptiveRK4StiffnessAdapts(t *testing.T) {
	// A fast and a slow mode: controller must shrink the step initially.
	f := func(t float64, y, dst []float64) {
		dst[0] = -1000 * y[0]
		dst[1] = -0.5 * y[1]
	}
	y := []float64{1, 1}
	st, err := AdaptiveRK4(f, 0, y, 0.1, AdaptiveOptions{AbsTol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected == 0 {
		t.Log("note: no rejected steps (initial step already small enough)")
	}
	if math.Abs(y[0]-math.Exp(-100)) > 1e-5 {
		t.Fatalf("fast mode wrong: %g", y[0])
	}
	if math.Abs(y[1]-math.Exp(-0.05)) > 1e-5 {
		t.Fatalf("slow mode wrong: %g", y[1])
	}
}

func TestAdaptiveRK4TimeDependentForcing(t *testing.T) {
	// y' = cos(t), y(0)=0 → y = sin(t). Exercises correct t handling.
	f := func(t float64, y, dst []float64) { dst[0] = math.Cos(t) }
	y := []float64{0}
	if _, err := AdaptiveRK4(f, 0, y, math.Pi/2, AdaptiveOptions{AbsTol: 1e-10}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-1) > 1e-8 {
		t.Fatalf("sin integration got %g want 1", y[0])
	}
}

func TestAdaptiveRK4Errors(t *testing.T) {
	y := []float64{1}
	if _, err := AdaptiveRK4(expDecay(1), 0, y, -1, AdaptiveOptions{}); err == nil {
		t.Fatal("expected error for negative duration")
	}
	if err := FixedRK4(expDecay(1), 0, y, 1, 0); err == nil {
		t.Fatal("expected error for zero step")
	}
}

// Property: adaptive integration of exponential decay is accurate for random
// rates and durations.
func TestAdaptiveDecayProperty(t *testing.T) {
	f := func(kRaw, durRaw uint8) bool {
		k := 0.1 + float64(kRaw)/16       // 0.1 .. ~16
		dur := 0.05 + float64(durRaw)/256 // 0.05 .. ~1.05
		y := []float64{1}
		if _, err := AdaptiveRK4(expDecay(k), 0, y, dur, AdaptiveOptions{AbsTol: 1e-9}); err != nil {
			return false
		}
		return math.Abs(y[0]-math.Exp(-k*dur)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFixedVsAdaptiveAgree(t *testing.T) {
	f := func(t float64, y, dst []float64) {
		dst[0] = -2*y[0] + y[1]
		dst[1] = y[0] - 2*y[1]
	}
	ya := []float64{1, 0}
	yb := []float64{1, 0}
	if err := FixedRK4(f, 0, ya, 1, 1e-4); err != nil {
		t.Fatal(err)
	}
	if _, err := AdaptiveRK4(f, 0, yb, 1, AdaptiveOptions{AbsTol: 1e-9}); err != nil {
		t.Fatal(err)
	}
	for i := range ya {
		if math.Abs(ya[i]-yb[i]) > 1e-6 {
			t.Fatalf("fixed vs adaptive mismatch at %d: %g vs %g", i, ya[i], yb[i])
		}
	}
}

// TestAdaptiveRK4MaxStepHonored: with a loose tolerance the controller would
// grow the step without bound; MaxStep must cap it, which pins the accepted
// step count to at least duration/MaxStep.
func TestAdaptiveRK4MaxStepHonored(t *testing.T) {
	derivs := func(tm float64, y, dst []float64) {
		dst[0] = -0.01 * y[0] // slow decay: everything is accepted
	}
	const maxStep = 0.125
	y := []float64{1}
	st, err := AdaptiveRK4(derivs, 0, y, 4.0, AdaptiveOptions{AbsTol: 1e3, MaxStep: maxStep})
	if err != nil {
		t.Fatal(err)
	}
	if st.LastStep > maxStep+1e-12 {
		t.Fatalf("last step %g exceeds MaxStep %g", st.LastStep, maxStep)
	}
	if min := int(4.0 / maxStep); st.Accepted < min {
		t.Fatalf("accepted %d steps, a MaxStep of %g over 4 s needs at least %d", st.Accepted, maxStep, min)
	}
	// And a MaxStep below the first step of duration/16 must clamp that
	// step too, and cap every step after it.
	y = []float64{1}
	st, err = AdaptiveRK4(derivs, 0, y, 4.0, AdaptiveOptions{AbsTol: 1e3, MaxStep: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted < 80 {
		t.Fatalf("accepted %d steps, want ≥ 80 with MaxStep 0.05 over 4 s", st.Accepted)
	}
}
