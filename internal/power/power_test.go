package power

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/uarch"
)

func gccTrace(t *testing.T, cycles, interval uint64) (*Model, []uarch.ActivitySample) {
	t.Helper()
	s, err := uarch.NewStream(uarch.GCC(), 17)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := uarch.NewCPU(uarch.DefaultCPU(), s)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up caches/predictor before measuring power.
	if _, err := cpu.Run(3_000_000, 3_000_000); err != nil {
		t.Fatal(err)
	}
	samples, err := cpu.Run(cycles, interval)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(DefaultWattch(), floorplan.EV6())
	if err != nil {
		t.Fatal(err)
	}
	return m, samples
}

func TestGCCTotalPowerPlausible(t *testing.T) {
	m, samples := gccTrace(t, 5_000_000, 10_000)
	tr, err := m.Trace(samples)
	if err != nil {
		t.Fatal(err)
	}
	total := tr.TotalAverage()
	if total < 25 || total > 60 {
		t.Fatalf("gcc average chip power %.1f W, want EV6-class 25-60 W", total)
	}
}

func TestIntegerClusterDominatesDensity(t *testing.T) {
	// The paper's Fig. 12 plots Dcache, Bpred, IntReg, IntExec and LdStQ as
	// the hottest blocks for gcc: their power densities must top the chip.
	m, samples := gccTrace(t, 5_000_000, 10_000)
	tr, err := m.Trace(samples)
	if err != nil {
		t.Fatal(err)
	}
	fp := m.Floorplan()
	avg := tr.Average()
	density := func(name string) float64 {
		bi := fp.Index(name)
		return avg[bi] / (fp.Blocks[bi].Area() * 1e6) // W/mm²
	}
	hot := []string{"IntReg", "IntExec", "LdStQ", "Bpred", "Dcache"}
	for _, h := range hot {
		if density(h) <= density("L2") {
			t.Fatalf("%s density %.3f W/mm² should exceed L2 %.3f", h, density(h), density("L2"))
		}
	}
	if density("IntReg") < density("FPMul") {
		t.Fatalf("gcc IntReg density %.3f should exceed idle FPMul %.3f", density("IntReg"), density("FPMul"))
	}
	// IntReg should be among the very top densities (it is the paper's
	// canonical hot spot).
	top, val := "", 0.0
	for _, b := range fp.Blocks {
		if d := density(b.Name); d > val {
			top, val = b.Name, d
		}
	}
	if top != "IntReg" && top != "IntExec" && top != "Bpred" {
		t.Fatalf("top density block is %q (%.3f W/mm²), expected the integer cluster", top, val)
	}
}

func TestTraceIntervalMatchesClock(t *testing.T) {
	m, samples := gccTrace(t, 200_000, 10_000)
	tr, err := m.Trace(samples)
	if err != nil {
		t.Fatal(err)
	}
	want := 10_000.0 / 3e9
	if math.Abs(tr.Interval-want) > 1e-15 {
		t.Fatalf("interval %g, want %g (≈3.3 µs per the paper)", tr.Interval, want)
	}
	if math.Abs(tr.Interval-3.33e-6) > 0.1e-6 {
		t.Fatalf("interval %g not ≈3.3 µs", tr.Interval)
	}
}

func TestARTShiftsPowerToFP(t *testing.T) {
	s, _ := uarch.NewStream(uarch.ART(), 21)
	cpu, _ := uarch.NewCPU(uarch.DefaultCPU(), s)
	cpu.Run(2_000_000, 2_000_000)
	samples, err := cpu.Run(2_000_000, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := New(DefaultWattch(), floorplan.EV6())
	tr, _ := m.Trace(samples)
	fp := m.Floorplan()
	avg := tr.Average()
	fpadd := avg[fp.Index("FPAdd")]
	// Compare against gcc.
	mg, gccSamples := gccTrace(t, 2_000_000, 10_000)
	trg, _ := mg.Trace(gccSamples)
	gccFPAdd := trg.Average()[fp.Index("FPAdd")]
	if fpadd <= gccFPAdd*1.5 {
		t.Fatalf("art FPAdd power %.2f W should clearly exceed gcc's %.2f W", fpadd, gccFPAdd)
	}
}

func TestBlockPowerZeroSample(t *testing.T) {
	m, _ := New(DefaultWattch(), floorplan.EV6())
	p := m.BlockPower(uarch.ActivitySample{})
	for _, v := range p {
		if v != 0 {
			t.Fatal("zero-cycle sample must produce zero power")
		}
	}
}

func TestIdleFloorPresent(t *testing.T) {
	// A sample with zero activity but nonzero cycles still burns idle,
	// clock-tree and leakage power.
	m, _ := New(DefaultWattch(), floorplan.EV6())
	p := m.BlockPower(uarch.ActivitySample{Cycles: 10_000})
	var total float64
	for _, v := range p {
		if v <= 0 {
			t.Fatal("every block should burn some idle power")
		}
		total += v
	}
	if total < 5 || total > 40 {
		t.Fatalf("idle chip power %.1f W implausible", total)
	}
}

func TestLeakageScaling(t *testing.T) {
	m, _ := New(DefaultWattch(), floorplan.EV6())
	if s := m.LeakageScale(m.cfg.LeakRefC); math.Abs(s-1) > 1e-12 {
		t.Fatalf("leakage at reference should be 1, got %g", s)
	}
	if s := m.LeakageScale(m.cfg.LeakRefC + m.cfg.LeakDoubleC); math.Abs(s-2) > 1e-12 {
		t.Fatalf("leakage should double after LeakDoubleC, got %g", s)
	}
	temps := make([]float64, m.fp.N())
	for i := range temps {
		temps[i] = m.cfg.LeakRefC
	}
	leak := make([]float64, m.fp.N())
	if err := m.LeakagePower(temps, leak); err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range leak {
		total += v
	}
	if math.Abs(total-m.cfg.LeakageW) > 1e-9 {
		t.Fatalf("reference leakage sums to %g, want %g", total, m.cfg.LeakageW)
	}
	if err := m.LeakagePower(temps[:3], leak); err == nil {
		t.Fatal("temperature length mismatch should error")
	}
	if err := m.LeakagePower(temps, leak[:3]); err == nil {
		t.Fatal("output length mismatch should error")
	}
}

func TestNewValidation(t *testing.T) {
	cfg := DefaultWattch()
	cfg.ClockHz = 0
	if _, err := New(cfg, floorplan.EV6()); err == nil {
		t.Fatal("zero clock should fail")
	}
	cfg = DefaultWattch()
	cfg.IdleFrac = 2
	if _, err := New(cfg, floorplan.EV6()); err == nil {
		t.Fatal("bad idle fraction should fail")
	}
	// Floorplan missing required blocks.
	fp := floorplan.UniformDie("die", 0.01, 0.01)
	if _, err := New(DefaultWattch(), fp); err == nil {
		t.Fatal("floorplan without EV6 blocks should fail")
	}
}

func TestTraceErrors(t *testing.T) {
	m, _ := New(DefaultWattch(), floorplan.EV6())
	if _, err := m.Trace(nil); err == nil {
		t.Fatal("empty samples should fail")
	}
}

// TestActivityPowerReassemblesBlockPower: dyn + static + reference leakage
// must reproduce BlockPower exactly when the wall interval matches the
// sample's own cycle time.
func TestActivityPowerReassemblesBlockPower(t *testing.T) {
	m, samples := gccTrace(t, 200_000, 10_000)
	s := samples[0]
	wallDT := float64(s.Cycles) / m.Config().ClockHz
	n := m.Floorplan().N()
	dyn := make([]float64, n)
	for i := range dyn {
		dyn[i] = math.NaN() // ActivityPower overwrites, never accumulates
	}
	if err := m.ActivityPower(s, wallDT, dyn); err != nil {
		t.Fatal(err)
	}
	static := m.StaticPower()
	refC := make([]float64, n)
	for i := range refC {
		refC[i] = m.Config().LeakRefC
	}
	leak := make([]float64, n)
	if err := m.LeakagePower(refC, leak); err != nil {
		t.Fatal(err)
	}
	want := m.BlockPower(s)
	for bi := range want {
		got := dyn[bi] + static[bi] + leak[bi]
		if d := math.Abs(got - want[bi]); d > 1e-12*math.Max(1, want[bi]) {
			t.Fatalf("block %d: dyn+static+leak = %g, BlockPower = %g (Δ %g)", bi, got, want[bi], d)
		}
	}
	// Stretching the wall interval dilutes the dynamic part.
	dyn2 := make([]float64, n)
	if err := m.ActivityPower(s, 2*wallDT, dyn2); err != nil {
		t.Fatal(err)
	}
	for bi := range dyn {
		if math.Abs(dyn2[bi]-dyn[bi]/2) > 1e-12*math.Max(1, dyn[bi]) {
			t.Fatalf("block %d: doubling wallDT should halve dynamic power", bi)
		}
	}
	if err := m.ActivityPower(s, 0, dyn); err == nil {
		t.Fatal("zero interval should fail")
	}
	if err := m.ActivityPower(s, wallDT, dyn[:3]); err == nil {
		t.Fatal("length mismatch should fail")
	}
}
