package uarch

import (
	"math/rand"
	"testing"
)

// runIPC measures IPC for a config over the gcc workload after warmup.
func runIPC(t *testing.T, cfg CPUConfig, seed int64) float64 {
	t.Helper()
	s, err := NewStream(GCC(), seed)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCPU(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(3_000_000, 3_000_000); err != nil {
		t.Fatal(err)
	}
	samples, err := c.Run(3_000_000, 3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var instr, cycles uint64
	for _, sm := range samples {
		instr += sm.Committed
		cycles += sm.Cycles
	}
	return float64(instr) / float64(cycles)
}

func TestMispredictPenaltyHurtsIPC(t *testing.T) {
	cheap := DefaultCPU()
	cheap.MispredictPenalty = 1
	costly := DefaultCPU()
	costly.MispredictPenalty = 40
	a := runIPC(t, cheap, 7)
	b := runIPC(t, costly, 7)
	if b >= a {
		t.Fatalf("larger mispredict penalty should lower IPC: %g vs %g", b, a)
	}
}

func TestROBSizeMatters(t *testing.T) {
	small := DefaultCPU()
	small.ROBSize = 8
	big := DefaultCPU()
	big.ROBSize = 160
	a := runIPC(t, small, 7)
	b := runIPC(t, big, 7)
	if b <= a {
		t.Fatalf("bigger ROB should raise IPC: %g vs %g", b, a)
	}
}

func TestMemLatencyMatters(t *testing.T) {
	fast := DefaultCPU()
	fast.LatMem = 20
	slow := DefaultCPU()
	slow.LatMem = 500
	a := runIPC(t, fast, 7)
	b := runIPC(t, slow, 7)
	if b >= a {
		t.Fatalf("slower memory should lower IPC: %g vs %g", b, a)
	}
}

func TestWidthMatters(t *testing.T) {
	narrow := DefaultCPU()
	narrow.Width = 1
	wide := DefaultCPU()
	wide.Width = 8
	a := runIPC(t, narrow, 7)
	b := runIPC(t, wide, 7)
	if b <= a {
		t.Fatalf("wider machine should raise IPC: %g vs %g", b, a)
	}
}

// TestIntervalCountsAdditive: the per-interval activity counts must sum to
// the whole-run counts exactly (no activity lost or double-counted at
// interval boundaries). Both runs stop at the same instruction.
func TestIntervalCountsAdditive(t *testing.T) {
	mk := func(interval uint64) (uint64, [NumUnits]uint64) {
		s, err := NewStream(GCC(), 99)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCPU(DefaultCPU(), s)
		if err != nil {
			t.Fatal(err)
		}
		samples, err := c.Run(1_000_000, interval)
		if err != nil {
			t.Fatal(err)
		}
		var committed uint64
		var total [NumUnits]uint64
		for _, sm := range samples {
			committed += sm.Committed
			for u := range sm.Counts {
				total[u] += sm.Counts[u]
			}
		}
		return committed, total
	}
	coarseCommitted, coarse := mk(1_000_000)
	fineCommitted, fine := mk(10_000)
	if coarseCommitted != fineCommitted {
		t.Fatalf("committed not additive: %d vs %d", coarseCommitted, fineCommitted)
	}
	for u := Unit(0); u < NumUnits; u++ {
		if coarse[u] != fine[u] {
			t.Fatalf("unit %v: counts not additive: %d vs %d", u, coarse[u], fine[u])
		}
	}
}

// runTotals runs c to each end cycle in turn, as the scenario producer does
// (skipping an end the CPU already reached), and sums the samples' committed
// instructions and unit counts.
func runTotals(t *testing.T, c *CPU, ends []uint64) (committed uint64, counts [NumUnits]uint64) {
	t.Helper()
	for _, end := range ends {
		if c.Cycle() >= end {
			continue
		}
		want := end - c.Cycle()
		samples, err := c.Run(want, want)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			committed += s.Committed
			for u := range counts {
				counts[u] += s.Counts[u]
			}
		}
	}
	return committed, counts
}

// TestRunChunkInvariant: one Run to cycle N and Runs to every multiple of a
// chunk size up to N stop at the same instruction, with the same cycle,
// committed instructions and unit counts. Splitting a run must not change
// the simulated machine: a control loop cuts a workload into steps of any
// length.
func TestRunChunkInvariant(t *testing.T) {
	const n = 300_000
	for _, w := range []Workload{GCC(), MCF(), ART()} {
		for _, seed := range []int64{2009, 7} {
			whole := newCPU(t, w, seed)
			wantCommitted, wantCounts := runTotals(t, whole, []uint64{n})
			for _, chunk := range []uint64{997, 1500, 15_000, 30_000} {
				var ends []uint64
				for end := chunk; end < n; end += chunk {
					ends = append(ends, end)
				}
				c := newCPU(t, w, seed)
				committed, counts := runTotals(t, c, append(ends, n))
				if c.Cycle() != whole.Cycle() || committed != wantCommitted || counts != wantCounts {
					t.Errorf("%s seed %d, %d-cycle chunks: cycle %d committed %d counts %v; one run: cycle %d committed %d counts %v",
						w.Name, seed, chunk, c.Cycle(), committed, counts, whole.Cycle(), wantCommitted, wantCounts)
				}
			}
		}
	}
}

func TestCyclesMonotone(t *testing.T) {
	s, _ := NewStream(MCF(), 13)
	c, _ := NewCPU(DefaultCPU(), s)
	samples, err := c.Run(500_000, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	var prevEnd uint64
	for i, sm := range samples {
		if sm.StartCycle != prevEnd {
			t.Fatalf("sample %d starts at %d, previous ended at %d", i, sm.StartCycle, prevEnd)
		}
		prevEnd = sm.StartCycle + sm.Cycles
	}
}

func TestIPCAccessor(t *testing.T) {
	s := ActivitySample{Cycles: 100, Committed: 150}
	if s.IPC() != 1.5 {
		t.Fatalf("IPC %g", s.IPC())
	}
	if (ActivitySample{}).IPC() != 0 {
		t.Fatal("zero-cycle IPC should be 0")
	}
}

func TestPhaseNameAccessible(t *testing.T) {
	s, _ := NewStream(GCC(), 7)
	if s.PhaseName() == "" {
		t.Fatal("phase name empty")
	}
	found := map[string]bool{}
	for i := 0; i < 5_000_000; i++ {
		s.Next()
		found[s.PhaseName()] = true
		if len(found) == 3 {
			break
		}
	}
	if len(found) < 2 {
		t.Fatalf("phase transitions never happened: %v", found)
	}
}

// TestTapeReplaysRun: a tape recorded to cycle n in uneven pieces, read
// back to an uneven sequence of end cycles, gives every sample and cycle a
// CPU running to the same end cycles gives, and a read past the tape's end
// is an error. The tape never outgrows MaxInstrs, also on a one-wide
// machine, whose bound is tightest.
func TestTapeReplaysRun(t *testing.T) {
	const n = 200_000
	narrow := DefaultCPU()
	narrow.Width = 1
	for _, cfg := range []CPUConfig{DefaultCPU(), narrow} {
		for _, w := range []Workload{GCC(), MCF(), ART()} {
			s, _ := NewStream(w, 11)
			rec, err := NewCPU(cfg, s)
			if err != nil {
				t.Fatal(err)
			}
			var tape Tape
			for end := uint64(0); end < n; {
				end = min(end+7_919, n)
				rec.Record(&tape, end)
			}
			if got, bound := uint64(tape.Len()), cfg.MaxInstrs(n); got > bound {
				t.Fatalf("%s width %d: tape holds %d instructions, MaxInstrs %d", w.Name, cfg.Width, got, bound)
			}
			s2, _ := NewStream(w, 11)
			cpu, _ := NewCPU(cfg, s2)
			r := tape.Clone().Reader()
			rng := rand.New(rand.NewSource(3))
			for end := uint64(0); end < n; {
				end = min(end+uint64(rng.Intn(20_000)), n)
				got, err := r.ReadTo(end)
				if err != nil {
					t.Fatal(err)
				}
				want := ActivitySample{StartCycle: cpu.Cycle()}
				if cpu.Cycle() < end {
					samples, err := cpu.Run(end-cpu.Cycle(), end-cpu.Cycle())
					if err != nil {
						t.Fatal(err)
					}
					want = samples[0]
				}
				if got != want || r.cycle != cpu.Cycle() {
					t.Fatalf("%s width %d, end %d: tape read %+v at cycle %d, Run %+v at cycle %d",
						w.Name, cfg.Width, end, got, r.cycle, want, cpu.Cycle())
				}
			}
			if _, err := r.ReadTo(r.cycle + 1); err == nil {
				t.Fatalf("%s: a read past the tape's end must fail", w.Name)
			}
		}
	}
}
