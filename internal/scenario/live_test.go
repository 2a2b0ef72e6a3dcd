package scenario

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/hotspot"
)

// cachedModels is a goroutine-safe model resolver that compiles each
// package once, as the service's model cache does.
func cachedModels() func(hotspot.Config) (*hotspot.Model, error) {
	var mu sync.Mutex
	models := map[string]*hotspot.Model{}
	return func(cfg hotspot.Config) (*hotspot.Model, error) {
		mu.Lock()
		defer mu.Unlock()
		fp := cfg.Fingerprint()
		if m := models[fp]; m != nil {
			return m, nil
		}
		m, err := hotspot.New(cfg)
		if err == nil {
			models[fp] = m
		}
		return m, err
	}
}

// liveRequest is one live-CPU request: Compile through the resolver and
// the tape cache (nil records the tapes, as direct callers do; the service
// passes its server's cache), then RunGrid.
func liveRequest(tb testing.TB, spec *Spec, models func(hotspot.Config) (*hotspot.Model, error), tapes *TapeCache, workers int) []CellResult {
	c, err := Compile(spec, Options{Models: models, Tapes: tapes})
	if err != nil {
		tb.Fatal(err)
	}
	res := c.RunGrid(context.Background(), workers, nil)
	for _, r := range res {
		if r.Err != nil {
			tb.Fatalf("cell %d: %v", r.Cell.Index, r.Err)
		}
	}
	return res
}

// TestProducerEntersEachScheduledPhaseOnce: a producer walked over a whole
// schedule enters each scheduled phase exactly once, at its first step, and
// never enters the phase after the last step (which would reset a CPU that
// never runs). The two 2-step phases repeat once, twice and 2.5 times,
// ending on a phase boundary, and once more ending mid-phase.
func TestProducerEntersEachScheduledPhaseOnce(t *testing.T) {
	for _, tc := range []struct {
		name     string
		duration float64 // 0 = one pass
		want     int
	}{
		{"one pass", 0, 2},
		{"two passes", 8e-4, 4},
		{"2.5 passes", 1e-3, 5},
		{"ends mid-phase", 9e-4, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := &Spec{
				Interval:   1e-4,
				Duration:   tc.duration,
				EmergencyC: 1e6,
				Power:      &PowerSpec{ClockHz: 3e8},
				Phases: []Phase{
					{Name: "gcc", Duration: 2e-4, Workload: "gcc"},
					{Name: "burst", Duration: 2e-4, Pulse: &PulseSpec{Block: "IntReg", PeakW: 3, OnS: 1e-4}},
				},
				Packages: []PackageSpec{{Kind: "air-sink"}},
				Policies: PolicyGrid{TriggerC: []float64{1e6}},
			}
			c, err := Compile(spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			p := &producer{c: c}
			defer p.release()
			blockPower := make([]float64, c.fp.N())
			for k := 0; k < c.Steps(); k++ {
				if _, err := p.next(blockPower, 1, 1, 1, 1, nil); err != nil {
					t.Fatal(err)
				}
			}
			if p.entered != tc.want {
				t.Fatalf("%d steps entered %d phases, want %d", c.Steps(), p.entered, tc.want)
			}
		})
	}
}

// TestLiveGridPooledConcurrent: eight goroutines compile and run the live
// grid at workers 1, 2 and 4 at once, so pooled CPUs and scratch tapes pass
// between requests and goroutines and concurrent cells share each request's
// tapes; every result must equal a serial run bit for bit. CI runs it at
// GOMAXPROCS=4 under -race.
func TestLiveGridPooledConcurrent(t *testing.T) {
	spec := loadSpec(t, liveSpecPath)
	models := cachedModels()
	serial := liveRequest(t, spec, models, nil, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, workers := range []int{1, 2, 4} {
				c, err := Compile(spec, Options{Models: models})
				if err != nil {
					t.Error(err)
					return
				}
				res := c.RunGrid(context.Background(), workers, nil)
				if !reflect.DeepEqual(res, serial) {
					t.Errorf("goroutine %d workers %d: results differ from the serial run", g, workers)
				}
			}
		}()
	}
	wg.Wait()
}

// TestLiveGridAllocBudget: a warm live request as the service serves it
// (models and tapes cached) allocates at most 128 KiB. Recording the tapes
// again would cost their exact-size copies alone, 51,177 instructions at 9
// bytes (460 KB), and a cold request builds a CPU, whose 2 MB L2 alone
// holds 512 KiB of tags and stamps. GC is off while measuring.
func TestLiveGridAllocBudget(t *testing.T) {
	spec := loadSpec(t, liveSpecPath)
	models := cachedModels()
	tapes := NewTapeCache()
	liveRequest(t, spec, models, tapes, 1)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		liveRequest(t, spec, models, tapes, 1)
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / n
	objects := (after.Mallocs - before.Mallocs) / n
	t.Logf("warm live request: %d B in %d objects", bytes, objects)
	if bytes > 128<<10 {
		t.Fatalf("warm live request allocated %d B, budget 128 KiB", bytes)
	}
}

// divergedSpec is the live spec under a policy grid whose cells engage for
// 0.1–0.3 ms at a time at triggers inside both packages' temperature
// ranges (air falls from 59.61 °C, oil rises from 104.02 °C), so the
// closed loops diverge: over one pass its 24 cells commit 11 distinct
// instruction counts. A nonzero duration loops or cuts the schedule.
func divergedSpec(tb testing.TB, duration float64) *Spec {
	spec := loadSpec(tb, liveSpecPath)
	spec.Duration = duration
	spec.Policies = PolicyGrid{
		TriggerC:        []float64{59.6, 104.03, 104.04},
		EngageDurationS: []float64{1e-4, 3e-4},
		PerfFactor:      []float64{0.5, 0.8},
	}
	return spec
}

// untaped returns a copy of c without tapes, whose producers step a pooled
// CPU through every workload phase, as they do through a phase over the
// tape cap.
func untaped(c *Compiled) *Compiled {
	u := *c
	u.phases = slices.Clone(c.phases)
	for i := range u.phases {
		u.phases[i].tape = nil
	}
	return &u
}

// TestTapeMatchesLiveCPU: a producer reading its phases' tapes equals one
// stepping its own CPU, bit for bit at every step (committed instructions
// and block power), under engagement that toggles mid-phase at several
// performance factors, over a schedule that loops and ends mid-phase; whole
// grids of diverging cells then agree in every metric and telemetry row.
// Tapes are planned from the spec alone: a phase over the cap steps a CPU,
// and a phase cut short by the duration tapes only the steps it runs. A
// read past a tape's end is an error, not a panic.
func TestTapeMatchesLiveCPU(t *testing.T) {
	compile := func(t *testing.T, spec *Spec) *Compiled {
		t.Helper()
		c, err := Compile(spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	tapeSteps := func(c *Compiled) []int {
		var out []int
		for _, ph := range c.phases {
			if ph.tape == nil {
				out = append(out, 0)
			} else {
				out = append(out, ph.tapeSteps)
			}
		}
		return out
	}
	t.Run("per step", func(t *testing.T) {
		c := compile(t, divergedSpec(t, 3.5e-3))
		if got := tapeSteps(c); !slices.Equal(got, []int{10, 10}) {
			t.Fatalf("taped steps per phase %v, want [10 10]", got)
		}
		u := untaped(c)
		n := c.fp.N()
		rng := rand.New(rand.NewSource(1))
		for _, pattern := range []struct {
			name    string
			engaged func(k int) bool
		}{
			{"always", func(int) bool { return true }},
			{"alternate", func(k int) bool { return k%2 == 1 }},
			{"bursts", func(k int) bool { return k%7 < 3 }},
			{"random", func(int) bool { return rng.Intn(2) == 0 }},
		} {
			name, engaged := pattern.name, pattern.engaged
			for _, f := range []float64{1, 0.9, 0.5, 0.25} {
				tp, cp := &producer{c: c}, &producer{c: u}
				got, want := make([]float64, n), make([]float64, n)
				temps := make([]float64, n)
				for k := 0; k < c.Steps(); k++ {
					progress, vScale, sScale := 1.0, 1.0, 1.0
					if engaged(k) {
						progress, vScale, sScale = f, f*f, f*f*f
					}
					leak := temps
					if k%3 == 0 {
						leak = nil
					}
					for bi := range temps {
						temps[bi] = 50 + 10*rng.Float64()
					}
					a, err := tp.next(got, progress, vScale, sScale, 1, leak)
					if err != nil {
						t.Fatal(err)
					}
					b, err := cp.next(want, progress, vScale, sScale, 1, leak)
					if err != nil {
						t.Fatal(err)
					}
					if a != b || !slices.Equal(got, want) {
						t.Fatalf("%s at factor %g, step %d: tape committed %d power %v; CPU %d %v", name, f, k, a, got, b, want)
					}
				}
				tp.release()
				cp.release()
			}
		}
	})
	t.Run("grid", func(t *testing.T) {
		// One pass; a loop ending mid-phase; a duration that cuts the mcf
		// phase's only entry to 5 steps.
		for _, tc := range []struct {
			duration float64
			taped    []int
		}{{0, []int{10, 10}}, {3.5e-3, []int{10, 10}}, {1.5e-3, []int{10, 5}}} {
			c := compile(t, divergedSpec(t, tc.duration))
			if got := tapeSteps(c); !slices.Equal(got, tc.taped) {
				t.Fatalf("duration %g: taped steps per phase %v, want %v", tc.duration, got, tc.taped)
			}
			tapeSink, cpuSink := &gridSink{}, &gridSink{}
			got := c.RunGridTelemetry(context.Background(), 2, nil, tapeSink)
			want := untaped(c).RunGridTelemetry(context.Background(), 2, nil, cpuSink)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("duration %g: taped grid differs from stepped CPUs", tc.duration)
			}
			if !reflect.DeepEqual(tapeSink.rows, cpuSink.rows) {
				t.Fatalf("duration %g: taped telemetry differs from stepped CPUs", tc.duration)
			}
			committed := map[uint64]bool{}
			for _, r := range got {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				committed[r.Metrics.Committed] = true
			}
			if len(committed) < 3 {
				t.Fatalf("duration %g: only %d distinct committed counts; the cells barely diverge", tc.duration, len(committed))
			}
		}
	})
	t.Run("over cap", func(t *testing.T) {
		// gcc's first entry may dispatch 4·300k+1 instructions; a 4 ms mcf
		// phase 4·1.2M+1, more than the cap leaves.
		spec := divergedSpec(t, 0)
		spec.Phases[1].Duration = 4e-3
		spec.Packages = spec.Packages[1:]
		spec.Policies.EngageDurationS = spec.Policies.EngageDurationS[:1]
		c := compile(t, spec)
		if got := tapeSteps(c); !slices.Equal(got, []int{10, 0}) {
			t.Fatalf("taped steps per phase %v, want [10 0]", got)
		}
		got := c.RunGrid(context.Background(), 1, nil)
		want := untaped(c).RunGrid(context.Background(), 1, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatal("grid with an over-cap phase differs from stepped CPUs")
		}
	})
	t.Run("past the tape", func(t *testing.T) {
		c := compile(t, divergedSpec(t, 0))
		p := &producer{c: c}
		defer p.release()
		blockPower := make([]float64, c.fp.N())
		for k := 0; k < c.Steps(); k++ {
			// Progress above 1 asks for more cycles than the nominal
			// prepass taped.
			if _, err := p.next(blockPower, 1.5, 1, 1, 1, nil); err != nil {
				if !strings.Contains(err.Error(), "tape") {
					t.Fatalf("step %d: %v", k, err)
				}
				return
			}
		}
		t.Fatal("reading past the tape's end succeeded")
	})
}

// BenchmarkScenarioLiveGrid is one live-CPU request of the benchmark's
// live spec that records its tapes, as a direct caller's compile or a
// server's first request of the spec does: Compile through a model cache,
// then RunGrid at workers 1.
func BenchmarkScenarioLiveGrid(b *testing.B) {
	benchLiveGrid(b, loadSpec(b, liveSpecPath), nil)
}

// BenchmarkScenarioLiveGridWarmTapes is the same request as the service
// serves a repeat of it: its tapes come from a TapeCache.
func BenchmarkScenarioLiveGridWarmTapes(b *testing.B) {
	benchLiveGrid(b, loadSpec(b, liveSpecPath), NewTapeCache())
}

// BenchmarkScenarioLiveGridDiverged is one request of the 24-cell
// divergedSpec grid, whose cells throttle at different steps, at workers 1;
// it records its tapes.
func BenchmarkScenarioLiveGridDiverged(b *testing.B) {
	benchLiveGrid(b, divergedSpec(b, 0), nil)
}

// benchLiveGrid times warm requests of spec: models cached, and tapes too
// when tapes is non-nil.
func benchLiveGrid(b *testing.B, spec *Spec, tapes *TapeCache) {
	models := cachedModels()
	liveRequest(b, spec, models, tapes, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		liveRequest(b, spec, models, tapes, 1)
	}
}
