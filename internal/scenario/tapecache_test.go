package scenario

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/uarch"
)

// phaseTapes returns c's tape per phase, nil for an untaped phase.
func phaseTapes(c *Compiled) []*uarch.Tape {
	out := make([]*uarch.Tape, len(c.phases))
	for i, ph := range c.phases {
		out[i] = ph.tape
	}
	return out
}

// compileWith compiles spec through the given tape cache (nil records).
func compileWith(t *testing.T, spec *Spec, tapes *TapeCache) *Compiled {
	t.Helper()
	c, err := Compile(spec, Options{Models: sharedModels, Tapes: tapes})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sharedModels compiles each package model once for every test here.
var sharedModels = cachedModels()

// TestTapeCacheMatchesUncached: through one TapeCache, the live spec and
// divergedSpec give cell results and telemetry bit-identical to an
// uncached compile. The first compile records every taped phase; the
// second records none and holds the very tapes the first cached.
func TestTapeCacheMatchesUncached(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec *Spec
	}{
		{"live", loadSpec(t, liveSpecPath)},
		{"diverged", divergedSpec(t, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := compileWith(t, tc.spec, nil)
			wantRes := want.RunGrid(context.Background(), 2, nil)
			wantTel := liveTelemetry(t, want, 2)
			tapes := NewTapeCache()
			first := compileWith(t, tc.spec, tapes)
			if st := tapes.Stats(); st.Misses != 2 || st.Hits != 0 || st.Tapes != 2 {
				t.Fatalf("first compile: %+v, want 2 misses, 0 hits, 2 tapes", st)
			}
			second := compileWith(t, tc.spec, tapes)
			if st := tapes.Stats(); st.Misses != 2 || st.Hits != 2 {
				t.Fatalf("second compile: %+v, want 2 misses, 2 hits", st)
			}
			for i, tp := range phaseTapes(second) {
				if tp != phaseTapes(first)[i] {
					t.Fatalf("phase %d: the second compile did not get the cached tape", i)
				}
				if !reflect.DeepEqual(tp, phaseTapes(want)[i]) {
					t.Fatalf("phase %d: cached tape differs from an uncached recording", i)
				}
			}
			for _, c := range []*Compiled{first, second} {
				if got := c.RunGrid(context.Background(), 2, nil); !reflect.DeepEqual(got, wantRes) {
					t.Fatal("cached-tape grid differs from an uncached compile")
				}
				if liveTelemetry(t, c, 2) != wantTel {
					t.Fatal("cached-tape telemetry differs from an uncached compile")
				}
			}
		})
	}
}

// TestTapeCacheKeyMisses: a spec that differs from the live spec only in
// something its recording reads misses for every phase that reads it, and
// hits for the others. Every tape it gets equals a fresh recording.
func TestTapeCacheKeyMisses(t *testing.T) {
	tapes := NewTapeCache()
	base := phaseTapes(compileWith(t, loadSpec(t, liveSpecPath), tapes))
	for _, tc := range []struct {
		name   string
		edit   func(*Spec)
		missed []bool // per phase
	}{
		{"seed", func(s *Spec) { s.Seed = 7 }, []bool{true, true}},
		{"clock_hz", func(s *Spec) { s.Power.ClockHz = 2e8 }, []bool{true, true}},
		{"interval", func(s *Spec) { s.Interval = 2e-4 }, []bool{true, true}},
		{"duration", func(s *Spec) { s.Phases[0].Duration = 8e-4 }, []bool{true, false}},
		{"workload", func(s *Spec) { s.Phases[1].Workload = "art" }, []bool{false, true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := loadSpec(t, liveSpecPath)
			tc.edit(spec)
			before := tapes.Stats()
			got := phaseTapes(compileWith(t, spec, tapes))
			want := phaseTapes(compileWith(t, spec, nil))
			misses := 0
			for i, m := range tc.missed {
				if m {
					misses++
				}
				if (got[i] != base[i]) != m {
					t.Errorf("phase %d: missed %v, want %v", i, got[i] != base[i], m)
				}
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("phase %d: tape differs from a fresh recording", i)
				}
			}
			if d := tapes.Stats().Misses - before.Misses; d != int64(misses) {
				t.Errorf("%d phases recorded, want %d", d, misses)
			}
		})
	}
}

// cutCtx is a context whose Err reports cancellation from its n-th call
// on, so a test can cut a compile at an exact control step.
type cutCtx struct {
	context.Context
	left atomic.Int64
}

func newCutCtx(n int64) *cutCtx {
	c := &cutCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *cutCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestTapeCacheCancelledRecording: a compile cancelled while it records
// caches nothing, whether the cut falls in its first taped phase or its
// second (after the first was recorded whole), and the next compile
// through the same cache records afresh and matches the live goldens.
func TestTapeCacheCancelledRecording(t *testing.T) {
	spec := loadSpec(t, liveSpecPath)
	tapes := NewTapeCache()
	// Compile checks Ctx once per package (2), then once per taped step
	// (10 of gcc, then 10 of mcf).
	for _, tc := range []struct {
		name   string
		checks int64
		misses int64 // phases whose recording began
	}{{"in gcc", 2 + 5, 1}, {"in mcf", 2 + 10 + 5, 3}} {
		_, err := Compile(spec, Options{Models: sharedModels, Tapes: tapes, Ctx: newCutCtx(tc.checks)})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: compile error %v, want cancellation", tc.name, err)
		}
		if st := tapes.Stats(); st.Tapes != 0 || st.Misses != tc.misses {
			t.Fatalf("%s: cache %+v after a cancelled compile, want no tapes and %d misses", tc.name, st, tc.misses)
		}
	}
	c := compileWith(t, spec, tapes)
	if st := tapes.Stats(); st.Tapes != 2 {
		t.Fatalf("cache %+v after a whole compile, want 2 tapes", st)
	}
	checkGolden(t, liveTelemetryGolden, liveTelemetry(t, c, 1))
}

// TestTapeCacheEviction: the cache evicts least recently used tapes first
// and never holds more than its bound, bookkeeping charge included; a
// second recording of a cached key, as a concurrent miss makes, gets the
// first one back; a tape too large for the bound is kept by its compile
// but not cached; and a compiled scenario whose tapes were evicted still
// reads them exactly.
func TestTapeCacheEviction(t *testing.T) {
	if got := NewTapeCache().limit; got != maxTapeInstrs {
		t.Fatalf("cache bound %d, want maxTapeInstrs %d", got, maxTapeInstrs)
	}
	record := func(endCycle uint64) *uarch.Tape {
		s, err := uarch.NewStream(uarch.GCC(), 1)
		if err != nil {
			t.Fatal(err)
		}
		cpu, err := uarch.NewCPU(uarch.DefaultCPU(), s)
		if err != nil {
			t.Fatal(err)
		}
		tp := &uarch.Tape{}
		cpu.Record(tp, endCycle)
		return tp
	}
	tape := record(20_000)
	cost := tape.Len() + tapeEntryInstrs
	tc := newTapeCache(3 * cost)
	key := func(i int) tapeKey { return tapeKey{preset: "gcc", seed: int64(i)} }
	held := func() []int64 {
		var out []int64
		for e := tc.lru.Front(); e != nil; e = e.Next() {
			out = append(out, e.Value.(*tapeEntry).key.seed)
		}
		return out
	}
	for i := 0; i < 3; i++ {
		tc.put(key(i), tape)
	}
	tc.get(key(0)) // 0 is now the most recent, 1 the least
	tc.put(key(3), tape)
	if got, want := held(), []int64{3, 0, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("held keys %v (most recent first), want %v", got, want)
	}
	if tc.held > tc.limit || tc.held != 3*cost {
		t.Fatalf("held %d of bound %d, want %d", tc.held, tc.limit, 3*cost)
	}
	if tc.put(key(2), record(20_000)) != tape || tc.held != 3*cost {
		t.Fatal("a second insert of a cached key must return the first tape and hold nothing more")
	}
	big := record(200_000)
	if big.Len()+tapeEntryInstrs <= tc.limit {
		t.Fatalf("a %d-instruction tape fits the bound %d; record a longer one", big.Len(), tc.limit)
	}
	if tc.put(key(9), big) != big || tc.lru.Len() != 3 {
		t.Fatal("a tape over the bound must be returned uncached")
	}

	// Compiles of four seeds through a cache that holds one seed's two
	// tapes but not two seeds': each evicts older seeds' tapes.
	spec := loadSpec(t, liveSpecPath)
	var want [][]CellResult
	pair := 0
	for seed := int64(1); seed <= 4; seed++ {
		spec.Seed = seed
		c := compileWith(t, spec, nil)
		want = append(want, c.RunGrid(context.Background(), 1, nil))
		pair = max(pair, c.phases[0].tape.Len()+c.phases[1].tape.Len()+2*tapeEntryInstrs)
	}
	tapes := newTapeCache(pair)
	var compiled []*Compiled
	for seed := int64(1); seed <= 4; seed++ {
		spec.Seed = seed
		compiled = append(compiled, compileWith(t, spec, tapes))
		if tapes.held > tapes.limit {
			t.Fatalf("seed %d: cache holds %d, bound %d", seed, tapes.held, tapes.limit)
		}
	}
	if st := tapes.Stats(); st.Misses != 8 || st.Tapes >= 4 {
		t.Fatalf("cache %+v, want 8 misses and fewer than 4 tapes held", st)
	}
	cached := func(c *Compiled, phase int) bool {
		_, ok := tapes.entries[c.phases[phase].tapeKey()]
		return ok
	}
	if cached(compiled[0], 0) || !cached(compiled[3], 0) || !cached(compiled[3], 1) {
		t.Fatal("the cache must hold the last seed's tapes and have evicted the first seed's gcc tape")
	}
	for i, c := range compiled[:3] {
		if got := c.RunGrid(context.Background(), 1, nil); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("seed %d: grid over evicted tapes differs from an uncached compile", i+1)
		}
	}
}

// TestTapeCacheConcurrent: eight goroutines compile and run the live grid
// and divergedSpec through one TapeCache at workers 1, 2 and 4 at once, so
// concurrent misses race to insert and hits share tapes across requests;
// every result must equal a serial uncached run. CI runs it at
// GOMAXPROCS=4 under -race.
func TestTapeCacheConcurrent(t *testing.T) {
	specs := []*Spec{loadSpec(t, liveSpecPath), divergedSpec(t, 0)}
	var serial [][]CellResult
	for _, spec := range specs {
		serial = append(serial, compileWith(t, spec, nil).RunGrid(context.Background(), 1, nil))
	}
	tapes := NewTapeCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, workers := range []int{1, 2, 4} {
				for i, spec := range specs {
					c, err := Compile(spec, Options{Models: sharedModels, Tapes: tapes})
					if err != nil {
						t.Error(err)
						return
					}
					if res := c.RunGrid(context.Background(), workers, nil); !reflect.DeepEqual(res, serial[i]) {
						t.Errorf("goroutine %d workers %d spec %d: results differ from the serial run", g, workers, i)
					}
				}
			}
		}()
	}
	wg.Wait()
	if st := tapes.Stats(); st.Tapes != 2 || st.Hits+st.Misses != 8*3*2*2 {
		t.Fatalf("cache %+v, want 2 tapes and %d lookups", st, 8*3*2*2)
	}
}
