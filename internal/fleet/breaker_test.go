package fleet

import (
	"testing"
	"time"
)

// breakerStep is one scripted move in the transition table: an event applied
// to the breaker plus the expectations that must hold right after it.
type breakerStep struct {
	op        string // "fail" | "ok" | "abandon" | "allow" | "deny" | "advance"
	d         time.Duration
	wantState BreakerState
}

// TestBreakerTransitions is the table test for the closed/open/half-open
// state machine, on an injected clock: trip threshold, open timeout, the
// half-open probe limit, both half-open exits, and the verdict-free
// release of an abandoned call.
func TestBreakerTransitions(t *testing.T) {
	cases := []struct {
		name  string
		cfg   BreakerConfig
		steps []breakerStep
	}{
		{
			name: "trips at consecutive threshold",
			cfg:  BreakerConfig{FailureThreshold: 3, OpenTimeout: time.Second},
			steps: []breakerStep{
				{op: "allow", wantState: BreakerClosed},
				{op: "fail", wantState: BreakerClosed},
				{op: "fail", wantState: BreakerClosed},
				{op: "fail", wantState: BreakerOpen},
				{op: "deny", wantState: BreakerOpen},
			},
		},
		{
			name: "success resets the failure streak",
			cfg:  BreakerConfig{FailureThreshold: 2, OpenTimeout: time.Second},
			steps: []breakerStep{
				{op: "fail", wantState: BreakerClosed},
				{op: "ok", wantState: BreakerClosed},
				{op: "fail", wantState: BreakerClosed},
				{op: "fail", wantState: BreakerOpen},
			},
		},
		{
			name: "open refuses until the timeout, then meters half-open probes",
			cfg:  BreakerConfig{FailureThreshold: 1, OpenTimeout: time.Second, HalfOpenProbes: 2},
			steps: []breakerStep{
				{op: "fail", wantState: BreakerOpen},
				{op: "deny", wantState: BreakerOpen},
				{op: "advance", d: 999 * time.Millisecond, wantState: BreakerOpen},
				{op: "deny", wantState: BreakerOpen},
				{op: "advance", d: time.Millisecond, wantState: BreakerOpen},
				{op: "allow", wantState: BreakerHalfOpen}, // probe 1 admitted
				{op: "allow", wantState: BreakerHalfOpen}, // probe 2 admitted
				{op: "deny", wantState: BreakerHalfOpen},  // probe limit reached
			},
		},
		{
			name: "half-open success closes and releases the probe slots",
			cfg:  BreakerConfig{FailureThreshold: 1, OpenTimeout: time.Second, HalfOpenProbes: 1},
			steps: []breakerStep{
				{op: "fail", wantState: BreakerOpen},
				{op: "advance", d: time.Second, wantState: BreakerOpen},
				{op: "allow", wantState: BreakerHalfOpen},
				{op: "deny", wantState: BreakerHalfOpen},
				{op: "ok", wantState: BreakerClosed},
				{op: "allow", wantState: BreakerClosed},
				{op: "allow", wantState: BreakerClosed}, // closed: unmetered
			},
		},
		{
			name: "half-open failure reopens and re-arms the timeout",
			cfg:  BreakerConfig{FailureThreshold: 1, OpenTimeout: time.Second, HalfOpenProbes: 1},
			steps: []breakerStep{
				{op: "fail", wantState: BreakerOpen},
				{op: "advance", d: time.Second, wantState: BreakerOpen},
				{op: "allow", wantState: BreakerHalfOpen},
				{op: "fail", wantState: BreakerOpen},
				{op: "deny", wantState: BreakerOpen},
				{op: "advance", d: 500 * time.Millisecond, wantState: BreakerOpen},
				{op: "deny", wantState: BreakerOpen}, // timeout restarted at reopen
				{op: "advance", d: 500 * time.Millisecond, wantState: BreakerOpen},
				{op: "allow", wantState: BreakerHalfOpen},
				{op: "ok", wantState: BreakerClosed},
			},
		},
		{
			name: "abandoned half-open probe frees its slot without a verdict",
			cfg:  BreakerConfig{FailureThreshold: 1, OpenTimeout: time.Second, HalfOpenProbes: 1},
			steps: []breakerStep{
				{op: "fail", wantState: BreakerOpen},
				{op: "advance", d: time.Second, wantState: BreakerOpen},
				{op: "allow", wantState: BreakerHalfOpen},
				{op: "deny", wantState: BreakerHalfOpen},
				{op: "abandon", wantState: BreakerHalfOpen}, // neither closes nor reopens
				{op: "allow", wantState: BreakerHalfOpen},   // the slot is free again
				{op: "deny", wantState: BreakerHalfOpen},
			},
		},
		{
			name: "abandoned call neither counts nor resets the failure streak",
			cfg:  BreakerConfig{FailureThreshold: 2, OpenTimeout: time.Second},
			steps: []breakerStep{
				{op: "abandon", wantState: BreakerClosed},
				{op: "abandon", wantState: BreakerClosed},
				{op: "fail", wantState: BreakerClosed},
				{op: "abandon", wantState: BreakerClosed},
				{op: "fail", wantState: BreakerOpen},
			},
		},
		{
			name: "straggler failure while already open is absorbed",
			cfg:  BreakerConfig{FailureThreshold: 1, OpenTimeout: time.Second},
			steps: []breakerStep{
				{op: "fail", wantState: BreakerOpen},
				{op: "fail", wantState: BreakerOpen},
				{op: "advance", d: time.Second, wantState: BreakerOpen},
				{op: "allow", wantState: BreakerHalfOpen},
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			now := time.Unix(1000, 0)
			cfg := tc.cfg
			cfg.now = func() time.Time { return now }
			b := NewBreaker(cfg)
			for i, st := range tc.steps {
				switch st.op {
				case "fail":
					b.OnFailure()
				case "ok":
					b.OnSuccess()
				case "abandon":
					b.OnAbandon()
				case "allow":
					if !b.Allow() {
						t.Fatalf("step %d: Allow() = false, want true", i)
					}
				case "deny":
					if b.Allow() {
						t.Fatalf("step %d: Allow() = true, want false", i)
					}
				case "advance":
					now = now.Add(st.d)
				default:
					t.Fatalf("step %d: unknown op %q", i, st.op)
				}
				if got := b.State(); got != st.wantState {
					t.Fatalf("step %d (%s): state = %s, want %s", i, st.op, got, st.wantState)
				}
			}
		})
	}
}

// TestBreakerTrips: the trip counter counts closed→open (and half-open→open)
// transitions over the breaker's lifetime.
func TestBreakerTrips(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, OpenTimeout: time.Second,
		now: func() time.Time { return now }})
	if b.Trips() != 0 {
		t.Fatalf("fresh breaker trips = %d", b.Trips())
	}
	b.OnFailure() // trip 1
	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("half-open probe refused")
	}
	b.OnFailure() // trip 2 (from half-open)
	if got := b.Trips(); got != 2 {
		t.Fatalf("trips = %d, want 2", got)
	}
}

// TestBreakerDefaults: the zero config takes the documented defaults and the
// state strings match the stats wire format.
func TestBreakerDefaults(t *testing.T) {
	cfg := BreakerConfig{}.defaulted()
	if cfg.FailureThreshold != 3 || cfg.OpenTimeout != time.Second || cfg.HalfOpenProbes != 1 {
		t.Fatalf("defaults = %+v", cfg)
	}
	for st, want := range map[BreakerState]string{
		BreakerClosed: "closed", BreakerOpen: "open", BreakerHalfOpen: "half-open", BreakerState(9): "unknown",
	} {
		if st.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", st, st.String(), want)
		}
	}
}
