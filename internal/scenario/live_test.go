package scenario

import (
	"context"
	"reflect"
	"runtime"
	"runtime/debug"
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

// liveRequest is one live-CPU request as the service serves it: Compile
// through the resolver, then RunGrid.
func liveRequest(tb testing.TB, spec *Spec, models func(hotspot.Config) (*hotspot.Model, error), workers int) []CellResult {
	c, err := Compile(spec, Options{Models: models})
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
// grid at workers 1, 2 and 4 at once, so pooled CPUs pass between
// producers, requests and goroutines; every result must equal a serial run
// bit for bit. CI runs it at GOMAXPROCS=4 under -race.
func TestLiveGridPooledConcurrent(t *testing.T) {
	spec := loadSpec(t, liveSpecPath)
	models := cachedModels()
	serial := liveRequest(t, spec, models, 1)
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

// TestLiveGridAllocBudget: a warm live request (models cached, CPUs
// pooled) allocates at most 1 MB. A cold one builds its CPUs, whose 2 MB L2
// alone holds 512 KiB of tags and stamps. GC is off while measuring so the
// pool cannot be emptied mid-run.
func TestLiveGridAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	spec := loadSpec(t, liveSpecPath)
	models := cachedModels()
	liveRequest(t, spec, models, 1)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		liveRequest(t, spec, models, 1)
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / n
	objects := (after.Mallocs - before.Mallocs) / n
	t.Logf("warm live request: %d B in %d objects", bytes, objects)
	if bytes > 1<<20 {
		t.Fatalf("warm live request allocated %d B, budget 1 MiB", bytes)
	}
}

// BenchmarkScenarioLiveGrid is one warm live-CPU request of the benchmark's
// live spec, as the service serves it: Compile through a model cache, then
// RunGrid at workers 1.
func BenchmarkScenarioLiveGrid(b *testing.B) {
	spec := loadSpec(b, liveSpecPath)
	models := cachedModels()
	liveRequest(b, spec, models, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		liveRequest(b, spec, models, 1)
	}
}
