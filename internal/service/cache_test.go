package service

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/floorplan"
	"repro/internal/hotspot"
)

// buildFor returns a build function for a small real model, counting calls.
func buildFor(rconv float64, calls *atomic.Int64) (string, func() (*hotspot.Model, error)) {
	cfg := hotspot.Config{
		Floorplan: floorplan.EV6(),
		Package:   hotspot.AirSink,
		AmbientK:  318.15,
		Air:       hotspot.AirSinkConfig{RConvec: rconv},
	}
	return cfg.Fingerprint(), func() (*hotspot.Model, error) {
		calls.Add(1)
		return hotspot.New(cfg)
	}
}

// TestModelCacheSingleFlightUnderRace hammers the cache with N goroutines ×
// M distinct fingerprints × R rounds and asserts exactly one compile per
// fingerprint. Run under -race (the CI race job does) this doubles as the
// concurrency soak for the cache.
func TestModelCacheSingleFlightUnderRace(t *testing.T) {
	const (
		goroutines = 16
		models     = 6
		rounds     = 5
	)
	c := NewModelCache(models)
	var compiles [models]atomic.Int64
	keys := make([]string, models)
	builds := make([]func() (*hotspot.Model, error), models)
	for i := 0; i < models; i++ {
		keys[i], builds[i] = buildFor(0.2+0.1*float64(i), &compiles[i])
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds; r++ {
				for _, i := range rng.Perm(models) {
					cm, _, err := c.Get(keys[i], builds[i])
					if err != nil {
						t.Errorf("get %d: %v", i, err)
						return
					}
					if cm.Fingerprint != keys[i] {
						t.Errorf("wrong entry for key %d", i)
						return
					}
					// Exercise the session pool: concurrent solves against
					// the shared model.
					se := cm.Session()
					p, err := cm.Model.PowerVector(map[string]float64{"IntReg": 1})
					if err != nil {
						t.Error(err)
						return
					}
					se.SteadyState(p)
					cm.Release(se)
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()

	for i := range compiles {
		if n := compiles[i].Load(); n != 1 {
			t.Fatalf("fingerprint %d compiled %d times, want exactly 1 (single-flight)", i, n)
		}
	}
	st := c.Stats()
	total := int64(goroutines * models * rounds)
	if st.Hits+st.Misses != total {
		t.Fatalf("hits %d + misses %d != %d requests", st.Hits, st.Misses, total)
	}
	if st.Compiles != models || st.Misses != models {
		t.Fatalf("compiles %d misses %d, want %d each", st.Compiles, st.Misses, models)
	}
	if st.Evictions != 0 || st.Size != models {
		t.Fatalf("unexpected evictions %d size %d", st.Evictions, st.Size)
	}
}

// TestModelCacheLRUEviction verifies the eviction order and accounting.
func TestModelCacheLRUEviction(t *testing.T) {
	c := NewModelCache(2)
	var calls [3]atomic.Int64
	keys := make([]string, 3)
	builds := make([]func() (*hotspot.Model, error), 3)
	for i := 0; i < 3; i++ {
		keys[i], builds[i] = buildFor(0.5+0.1*float64(i), &calls[i])
	}
	get := func(i int) bool {
		_, hit, err := c.Get(keys[i], builds[i])
		if err != nil {
			t.Fatal(err)
		}
		return hit
	}

	get(0) // {0}
	get(1) // {1,0}
	get(2) // {2,1} — evicts 0
	if st := c.Stats(); st.Evictions != 1 || st.Size != 2 {
		t.Fatalf("after third insert: %+v", st)
	}
	if get(1) != true { // touch 1 → {1,2}
		t.Fatal("expected hit on resident entry 1")
	}
	if get(0) != false { // rebuild 0 → {0,1}, evicts 2
		t.Fatal("expected miss on evicted entry 0")
	}
	if calls[0].Load() != 2 {
		t.Fatalf("entry 0 compiled %d times, want 2 (evicted then rebuilt)", calls[0].Load())
	}
	if get(1) != true {
		t.Fatal("entry 1 should have survived (LRU kept the recently-touched entry)")
	}
	if get(2) != false {
		t.Fatal("entry 2 should have been the LRU victim")
	}
	st := c.Stats()
	// Invariant: resident entries = successful compiles − evictions.
	if int64(st.Size) != st.Compiles-st.Evictions {
		t.Fatalf("size %d != compiles %d − evictions %d", st.Size, st.Compiles, st.Evictions)
	}
}

// TestModelCacheBuildErrorNotCached: failed builds return the error to the
// caller and leave the key buildable.
func TestModelCacheBuildErrorNotCached(t *testing.T) {
	c := NewModelCache(4)
	var calls atomic.Int64
	failing := func() (*hotspot.Model, error) {
		calls.Add(1)
		return nil, fmt.Errorf("synthetic compile failure")
	}
	if _, _, err := c.Get("k", failing); err == nil {
		t.Fatal("error not propagated")
	}
	if _, _, err := c.Get("k", failing); err == nil {
		t.Fatal("error not propagated on retry")
	}
	if calls.Load() != 2 {
		t.Fatalf("failing build called %d times, want 2 (errors must not be cached)", calls.Load())
	}
	st := c.Stats()
	if st.CompileErrors != 2 || st.Size != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestModelCacheBuildPanic: a build that panics releases its entry — Get
// returns a 500 error instead of leaving waiters blocked on an entry that
// never becomes ready — counts a compile error, and the next Get rebuilds.
func TestModelCacheBuildPanic(t *testing.T) {
	c := NewModelCache(4)
	_, _, err := c.Get("k", func() (*hotspot.Model, error) { panic("invalid ambient resistance 0") })
	var se *statusError
	if !errors.As(err, &se) || se.code != http.StatusInternalServerError || !strings.Contains(err.Error(), "invalid ambient resistance 0") {
		t.Fatalf("panicking build: error %v, want a 500 naming the panic", err)
	}
	var calls atomic.Int64
	key, build := buildFor(0.8, &calls)
	if _, _, err := c.Get(key, build); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, hit, err := c.Get("k", build)
		if err == nil && hit {
			err = errors.New("rebuild reported a hit")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("rebuild after a panic: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Get after a panicking build hangs on its entry")
	}
	st := c.Stats()
	if st.CompileErrors != 1 || st.Compiles != 2 || st.Size != 2 {
		t.Fatalf("stats %+v, want 1 compile error, 2 compiles, 2 resident", st)
	}
}
