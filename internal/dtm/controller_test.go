package dtm

import "testing"

// TestControllerQuantizesRoundHalfUp: SampleInterval and EngageDuration
// quantize to whole trace steps by rounding half-up, never below one step.
func TestControllerQuantizesRoundHalfUp(t *testing.T) {
	const dt = 1e-4
	cases := []struct {
		interval float64
		want     int
	}{
		{3.3e-4, 3}, // the documented contract case: 3.3 steps rounds down
		{3.5e-4, 4}, // half rounds up
		{3.7e-4, 4},
		{1e-4, 1}, // exact ratio unchanged
		{0.4e-4, 1} /* sub-step clamps to one step */, {5e-3, 50},
	}
	for _, tc := range cases {
		p := basePolicy()
		p.SampleInterval = tc.interval
		p.EngageDuration = tc.interval
		c, err := NewController(p, dt)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.SampleSteps(); got != tc.want {
			t.Errorf("SampleInterval %g on %g steps: got %d sample steps, want %d", tc.interval, dt, got, tc.want)
		}
		if got := c.EngageSteps(); got != tc.want {
			t.Errorf("EngageDuration %g on %g steps: got %d engage steps, want %d", tc.interval, dt, got, tc.want)
		}
	}
}

// TestControllerEngagementLatch: a trigger engages for EngageSteps steps and
// re-triggering extends without double-counting engagements.
func TestControllerEngagementLatch(t *testing.T) {
	p := basePolicy()
	p.TriggerC = 70
	p.SampleInterval = 2e-3
	p.EngageDuration = 3e-3
	c, err := NewController(p, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if !c.ShouldSample(0) || c.ShouldSample(1) || !c.ShouldSample(2) {
		t.Fatal("sampling schedule should be every 2 steps from step 0")
	}
	c.Observe(0, 75)
	for step := 0; step < 3; step++ {
		if !c.Engaged(step) {
			t.Fatalf("step %d should be engaged", step)
		}
	}
	if c.Engaged(3) {
		t.Fatal("engagement should expire after 3 steps")
	}
	c.Observe(2, 75) // re-trigger while engaged: extends, same event
	if !c.Engaged(4) || c.Engaged(5) {
		t.Fatal("re-trigger should extend engagement to step 5")
	}
	if c.Engagements() != 1 {
		t.Fatalf("extension counted as new engagement: %d", c.Engagements())
	}
	c.Observe(10, 75) // after expiry: a new event
	if c.Engagements() != 2 {
		t.Fatalf("want 2 engagements, got %d", c.Engagements())
	}
	if c.Observe(12, 60); c.Engagements() != 2 {
		t.Fatal("below-trigger observation must not engage")
	}
}
