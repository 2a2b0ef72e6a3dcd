package uarch

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestCacheBasics(t *testing.T) {
	c := NewCache(1<<10, 2, 64) // 1 KiB, 2-way, 64B lines → 8 sets
	if hit := c.Access(0); hit {
		t.Fatal("cold access should miss")
	}
	if hit := c.Access(0); !hit {
		t.Fatal("second access should hit")
	}
	if hit := c.Access(32); !hit {
		t.Fatal("same line should hit")
	}
	if c.Accesses != 3 || c.Misses != 1 {
		t.Fatalf("stats %d/%d", c.Misses, c.Accesses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2*64, 2, 64) // one set, two ways
	c.Access(0 * 64)
	c.Access(1 * 64)
	c.Access(0 * 64) // touch 0: LRU is line 1
	c.Access(2 * 64) // evicts line 1
	if !c.Access(0 * 64) {
		t.Fatal("line 0 should survive (was MRU)")
	}
	if c.Access(1 * 64) {
		t.Fatal("line 1 should have been evicted")
	}
}

func TestCacheCapacityBehaviour(t *testing.T) {
	// Working set fitting in the cache → near-zero steady miss rate;
	// 4× oversized working set → high miss rate.
	small := NewCache(8<<10, 2, 64)
	for pass := 0; pass < 4; pass++ {
		for a := uint64(0); a < 8<<10; a += 64 {
			small.Access(a)
		}
	}
	small.ResetStats()
	for a := uint64(0); a < 8<<10; a += 64 {
		small.Access(a)
	}
	if small.MissRate() > 0.01 {
		t.Fatalf("fitting set should hit: miss rate %g", small.MissRate())
	}
	big := NewCache(8<<10, 2, 64)
	for pass := 0; pass < 4; pass++ {
		for a := uint64(0); a < 32<<10; a += 64 {
			big.Access(a)
		}
	}
	if big.MissRate() < 0.5 {
		t.Fatalf("thrashing set should miss: miss rate %g", big.MissRate())
	}
}

func TestBPredLearnsBias(t *testing.T) {
	b := NewBPred(12)
	// Strongly biased branch: predictor should converge to near-perfect.
	for i := 0; i < 2000; i++ {
		b.Predict(0x1000, true)
	}
	b.ResetStats()
	for i := 0; i < 1000; i++ {
		b.Predict(0x1000, true)
	}
	if b.MispredictRate() > 0.01 {
		t.Fatalf("biased branch should be predictable: %g", b.MispredictRate())
	}
}

func TestBPredPatternLearning(t *testing.T) {
	// Alternating pattern is learnable through global history.
	b := NewBPred(12)
	for i := 0; i < 4000; i++ {
		b.Predict(0x2000, i%2 == 0)
	}
	b.ResetStats()
	for i := 0; i < 1000; i++ {
		b.Predict(0x2000, i%2 == 0)
	}
	if b.MispredictRate() > 0.05 {
		t.Fatalf("alternating pattern should be learnable: %g", b.MispredictRate())
	}
}

func TestWorkloadValidation(t *testing.T) {
	for _, name := range []string{"gcc", "mcf", "art"} {
		w, ok := Preset(name)
		if !ok || w.Name != name {
			t.Fatalf("Preset(%q) = %q, %v", name, w.Name, ok)
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("preset %q invalid: %v", name, err)
		}
	}
	if _, ok := Preset("gzip"); ok {
		t.Fatal("unknown preset found")
	}
	bad := GCC()
	bad.Transition = bad.Transition[:1]
	if err := bad.Validate(); err == nil {
		t.Fatal("truncated transition matrix should fail")
	}
	empty := Workload{Name: "x"}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty workload should fail")
	}
}

func TestStreamDeterminism(t *testing.T) {
	s1, err := NewStream(GCC(), 42)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := NewStream(GCC(), 42)
	for i := 0; i < 10000; i++ {
		a, b := s1.Next(), s2.Next()
		if a != b {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, a, b)
		}
	}
	s3, _ := NewStream(GCC(), 43)
	same := 0
	for i := 0; i < 1000; i++ {
		if s1.Next() == s3.Next() {
			same++
		}
	}
	if same > 900 {
		t.Fatal("different seeds should produce different streams")
	}
}

func TestStreamMixMatchesPhase(t *testing.T) {
	// A single-phase workload must reproduce its instruction mix.
	w := Workload{
		Name: "unit",
		Phases: []Phase{{
			Name:       "only",
			Mix:        [7]float64{IntALU: 0.5, Load: 0.3, Branch: 0.2},
			BranchBias: 0.5, CodeFootprint: 4096, DataFootprint: 4096,
			MeanDepDist: 2, MeanLength: 1000,
		}},
		Transition: [][]float64{{1}},
	}
	s, err := NewStream(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	var counts [7]int
	n := 100000
	for i := 0; i < n; i++ {
		counts[s.Next().Class]++
	}
	if f := float64(counts[IntALU]) / float64(n); math.Abs(f-0.5) > 0.02 {
		t.Fatalf("IntALU fraction %g, want 0.5", f)
	}
	if f := float64(counts[Branch]) / float64(n); math.Abs(f-0.2) > 0.02 {
		t.Fatalf("Branch fraction %g, want 0.2", f)
	}
	if counts[FPAdd] != 0 || counts[FPMul] != 0 {
		t.Fatal("integer workload should have no FP ops")
	}
}

func newCPU(t *testing.T, w Workload, seed int64) *CPU {
	t.Helper()
	s, err := NewStream(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCPU(DefaultCPU(), s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCPURunProducesSamples(t *testing.T) {
	c := newCPU(t, GCC(), 7)
	samples, err := c.Run(200_000, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 19 {
		t.Fatalf("got %d samples", len(samples))
	}
	var committed uint64
	for _, s := range samples {
		committed += s.Committed
		if s.Cycles == 0 {
			t.Fatal("zero-cycle sample")
		}
	}
	if committed == 0 {
		t.Fatal("no instructions committed")
	}
}

func TestCPUIPCInPlausibleRange(t *testing.T) {
	c := newCPU(t, GCC(), 11)
	// Warm the caches and predictor first, then measure.
	if _, err := c.Run(5_000_000, 5_000_000); err != nil {
		t.Fatal(err)
	}
	samples, err := c.Run(5_000_000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	var instr, cycles uint64
	for _, s := range samples {
		instr += s.Committed
		cycles += s.Cycles
	}
	ipc := float64(instr) / float64(cycles)
	if ipc < 0.4 || ipc > 4.0 {
		t.Fatalf("gcc IPC = %g, implausible for a 4-wide machine", ipc)
	}
}

func TestMCFIsMemoryBound(t *testing.T) {
	// mcf's huge footprint must miss more and run slower than gcc.
	run := func(w Workload) (ipc, l1dMiss float64) {
		c := newCPU(t, w, 5)
		samples, err := c.Run(2_000_000, 2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		var instr, cycles uint64
		for _, s := range samples {
			instr += s.Committed
			cycles += s.Cycles
		}
		_, d, _, _ := c.Stats()
		return float64(instr) / float64(cycles), d
	}
	gccIPC, gccMiss := run(GCC())
	mcfIPC, mcfMiss := run(MCF())
	if mcfIPC >= gccIPC {
		t.Fatalf("mcf IPC %g should be below gcc %g", mcfIPC, gccIPC)
	}
	if mcfMiss <= gccMiss {
		t.Fatalf("mcf L1D miss rate %g should exceed gcc %g", mcfMiss, gccMiss)
	}
}

func TestARTExercisesFP(t *testing.T) {
	c := newCPU(t, ART(), 3)
	samples, err := c.Run(1_000_000, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	s := samples[0]
	if s.Counts[UFPAdd] == 0 || s.Counts[UFPMul] == 0 {
		t.Fatal("art should exercise FP units")
	}
	if s.Counts[UFPAdd] < s.Counts[UIntExec]/4 {
		t.Fatalf("art FP activity too low: fpadd %d vs intexec %d", s.Counts[UFPAdd], s.Counts[UIntExec])
	}
	// gcc, by contrast, has idle FP units.
	g := newCPU(t, GCC(), 3)
	gs, err := g.Run(1_000_000, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if gs[0].Counts[UFPAdd] > gs[0].Counts[UIntExec]/20 {
		t.Fatal("gcc should be integer-dominated")
	}
}

func TestCountsConsistency(t *testing.T) {
	c := newCPU(t, GCC(), 9)
	samples, err := c.Run(500_000, 500_000)
	if err != nil {
		t.Fatal(err)
	}
	s := samples[0]
	// Every load/store touches Dcache, DTB and LdStQ equally.
	if s.Counts[UDcache] != s.Counts[UDTB] || s.Counts[UDcache] != s.Counts[ULdStQ] {
		t.Fatalf("mem-path counts disagree: %d %d %d", s.Counts[UDcache], s.Counts[UDTB], s.Counts[ULdStQ])
	}
	// Register file activity is 3 ops per mapped instruction.
	if s.Counts[UIntReg] != 3*s.Counts[UIntMap] {
		t.Fatalf("IntReg %d != 3×IntMap %d", s.Counts[UIntReg], s.Counts[UIntMap])
	}
	// The L2 sees only a subset of L1 traffic.
	if s.Counts[UL2] > s.Counts[UDcache]+s.Counts[UIcache] {
		t.Fatal("L2 accesses exceed L1 traffic")
	}
}

func TestCPUConfigValidation(t *testing.T) {
	s, _ := NewStream(GCC(), 1)
	for name, mutate := range map[string]func(*CPUConfig){
		"zero width":            func(c *CPUConfig) { c.Width = 0 },
		"ROB not wider":         func(c *CPUConfig) { c.ROBSize = c.Width },
		"no int ALU":            func(c *CPUConfig) { c.NIntALU = 0 },
		"no int multiplier":     func(c *CPUConfig) { c.NIntMul = 0 },
		"no FP adder":           func(c *CPUConfig) { c.NFPAdd = 0 },
		"no FP multiplier":      func(c *CPUConfig) { c.NFPMul = 0 },
		"no memory port":        func(c *CPUConfig) { c.NMemPort = -1 },
		"empty L1I":             func(c *CPUConfig) { c.L1ISize = 0 },
		"no L1I ways":           func(c *CPUConfig) { c.L1IWays = 0 },
		"empty L1D":             func(c *CPUConfig) { c.L1DSize = -64 },
		"no L1D ways":           func(c *CPUConfig) { c.L1DWays = 0 },
		"empty L2":              func(c *CPUConfig) { c.L2Size = 0 },
		"no L2 ways":            func(c *CPUConfig) { c.L2Ways = -8 },
		"zero line":             func(c *CPUConfig) { c.LineBytes = 0 },
		"line not a power of 2": func(c *CPUConfig) { c.LineBytes = 48 },
		"line under one instr":  func(c *CPUConfig) { c.LineBytes = 2 },
		"no predictor":          func(c *CPUConfig) { c.PredictorBits = 0 },
		"predictor too large":   func(c *CPUConfig) { c.PredictorBits = 25 },
		"negative latency":      func(c *CPUConfig) { c.LatMem = -1 },
		"negative penalty":      func(c *CPUConfig) { c.MispredictPenalty = -12 },
	} {
		cfg := DefaultCPU()
		mutate(&cfg)
		if _, err := NewCPU(cfg, s); err == nil {
			t.Errorf("%s: NewCPU accepted %+v", name, cfg)
		}
	}
	for _, bits := range []uint{1, 16} {
		cfg := DefaultCPU()
		cfg.PredictorBits = bits
		if _, err := NewCPU(cfg, s); err != nil {
			t.Errorf("PredictorBits %d: %v", bits, err)
		}
	}
	if _, err := NewCPU(DefaultCPU(), nil); err == nil {
		t.Fatal("nil stream should fail")
	}
	c, _ := NewCPU(DefaultCPU(), s)
	if _, err := c.Run(10, 100); err == nil {
		t.Fatal("total < interval should fail")
	}
	if err := c.Reset(nil); err == nil {
		t.Fatal("Reset onto a nil stream should fail")
	}
}

// TestResetMatchesNew: a Cache, BPred, Stream and CPU that ran, once reset,
// equal freshly built ones field for field, and a reset CPU then simulates
// exactly what a new one does. The dirty CPU ran another workload first, so
// the stream's reset also swaps its phase tables.
func TestResetMatchesNew(t *testing.T) {
	dirty := func(t *testing.T, w Workload, seed int64) *CPU {
		t.Helper()
		c := newCPU(t, w, seed)
		if _, err := c.Run(1_000_000, 250_000); err != nil {
			t.Fatal(err)
		}
		if c.l2.Accesses == 0 || c.bp.Lookups == 0 {
			t.Fatal("dirty run touched no L2 or predictor")
		}
		return c
	}
	t.Run("cache and predictor", func(t *testing.T) {
		c := dirty(t, MCF(), 99)
		for _, pair := range [][2]*Cache{
			{c.l1i, NewCache(DefaultCPU().L1ISize, DefaultCPU().L1IWays, DefaultCPU().LineBytes)},
			{c.l1d, NewCache(DefaultCPU().L1DSize, DefaultCPU().L1DWays, DefaultCPU().LineBytes)},
			{c.l2, NewCache(DefaultCPU().L2Size, DefaultCPU().L2Ways, DefaultCPU().LineBytes)},
		} {
			pair[0].Reset()
			if !reflect.DeepEqual(pair[0], pair[1]) {
				t.Fatal("reset cache differs from a new one")
			}
		}
		c.bp.Reset()
		if !reflect.DeepEqual(c.bp, NewBPred(DefaultCPU().PredictorBits)) {
			t.Fatal("reset predictor differs from a new one")
		}
	})
	others := map[string]Workload{"gcc": MCF(), "mcf": ART(), "art": GCC()}
	for _, w := range []Workload{GCC(), MCF(), ART()} {
		name := w.Name
		for _, seed := range []int64{2009, 7} {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				fresh := newCPU(t, w, seed)
				reused := dirty(t, others[name], seed+1)
				if err := reused.stream.Reset(w, seed); err != nil {
					t.Fatal(err)
				}
				freshStream, _ := NewStream(w, seed)
				if !reflect.DeepEqual(reused.stream, freshStream) {
					t.Fatal("reset stream differs from a new one")
				}
				if err := reused.Reset(reused.stream); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(reused, fresh) {
					t.Fatal("reset CPU differs from a new one")
				}
				want, err := fresh.Run(1_000_000, 100_000)
				if err != nil {
					t.Fatal(err)
				}
				got, err := reused.Run(1_000_000, 100_000)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatal("reset CPU simulates differently from a new one")
				}
				if !reflect.DeepEqual(reused, fresh) {
					t.Fatal("reset and new CPUs end in different states")
				}
			})
		}
	}
}

// Property: cache accesses never exceed misses-free bound and miss count is
// monotone in working-set size for a scanning pattern.
func TestCacheMissMonotonicityProperty(t *testing.T) {
	f := func(raw uint8) bool {
		ws1 := 4<<10 + int(raw)<<6
		ws2 := ws1 * 2
		m1 := scanMissRate(ws1)
		m2 := scanMissRate(ws2)
		return m2 >= m1-0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func scanMissRate(ws int) float64 {
	c := NewCache(8<<10, 2, 64)
	for pass := 0; pass < 3; pass++ {
		for a := uint64(0); a < uint64(ws); a += 64 {
			c.Access(a)
		}
	}
	return c.MissRate()
}

func TestUnitNames(t *testing.T) {
	if UIcache.String() != "Icache" || ULdStQ.String() != "LdStQ" {
		t.Fatal("unit names wrong")
	}
	if Unit(99).String() == "" {
		t.Fatal("out-of-range unit should still format")
	}
}
