// Package power is the repository's Wattch stand-in (the power side of the
// paper's §5 SimpleScalar/Wattch setup feeding Figs. 10 and 12): it converts
// the per-unit activity counts produced by the uarch timing model into
// per-block power traces for the EV6 floorplan. The model follows Wattch's
// conditional-clocking style: each unit burns energy-per-access × access
// rate plus an idle fraction of its peak power (imperfect clock gating),
// a clock-tree power spread over the core, and an area-proportional leakage
// term with exponential temperature dependence (the feedback the paper's §6
// future-work discussion flags; ActivityPower, StaticPower and LeakagePower
// expose the split the closed-loop engine needs to apply it online).
package power

import (
	"fmt"
	"math"

	"repro/internal/floorplan"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// Config holds the power-model parameters.
type Config struct {
	// ClockHz is the core clock (default 3 GHz, matching the paper's
	// "10K cycles ≈ 3.3 µs" sampling note).
	ClockHz float64
	// EnergyNJ is the energy per access in nanojoules, per unit.
	EnergyNJ [uarch.NumUnits]float64
	// PeakRate is the nominal maximum accesses per cycle, per unit; it
	// defines peak power for the idle-clocking term.
	PeakRate [uarch.NumUnits]float64
	// IdleFrac is the fraction of peak dynamic power burned when a unit is
	// idle (Wattch's cc3 "aggressive conditional clocking" uses ~0.1).
	IdleFrac float64
	// ClockTreeW is the total clock-distribution power, spread over the
	// core blocks (not the L2 arrays) in proportion to area.
	ClockTreeW float64
	// LeakageW is the total chip leakage at LeakRefC, spread over all
	// blocks in proportion to area.
	LeakageW float64
	// LeakRefC is the reference temperature for LeakageW (°C).
	LeakRefC float64
	// LeakDoubleC is the temperature increase that doubles leakage (°C).
	LeakDoubleC float64
}

// DefaultWattch returns parameters tuned so the gcc workload dissipates a
// realistic EV6-class total (≈35-45 W average) with the integer cluster
// (IntReg/IntExec), LdStQ, Dcache and Bpred as the dominant power densities
// — the five blocks the paper plots in Fig. 12.
func DefaultWattch() Config {
	var e, r [uarch.NumUnits]float64
	set := func(u uarch.Unit, energyNJ, peakRate float64) {
		e[u] = energyNJ
		r[u] = peakRate
	}
	set(uarch.UIcache, 10, 0.30) // per line-fetch (≈4 fetch groups)
	set(uarch.UDcache, 6.5, 2)
	set(uarch.UL2, 22, 0.12)
	set(uarch.UBpred, 2.6, 1)
	set(uarch.UITB, 1.2, 0.30)
	set(uarch.UDTB, 0.8, 2)
	set(uarch.UIntReg, 0.32, 12)
	set(uarch.UIntExec, 1.2, 4)
	set(uarch.UIntMap, 0.5, 4)
	set(uarch.UIntQ, 0.6, 4)
	set(uarch.UFPReg, 0.5, 6)
	set(uarch.UFPAdd, 2.8, 2)
	set(uarch.UFPMul, 3.2, 1)
	set(uarch.UFPMap, 0.8, 2)
	set(uarch.UFPQ, 0.5, 2)
	set(uarch.ULdStQ, 2.4, 2)
	return Config{
		ClockHz:     3e9,
		EnergyNJ:    e,
		PeakRate:    r,
		IdleFrac:    0.06,
		ClockTreeW:  6,
		LeakageW:    6,
		LeakRefC:    85,
		LeakDoubleC: 30,
	}
}

// unitBlock maps each uarch unit to the EV6 floorplan block bearing its
// power. The L2 is special-cased: its traffic is split across the three L2
// arrays by area.
var unitBlock = map[uarch.Unit]string{
	uarch.UIcache:  "Icache",
	uarch.UDcache:  "Dcache",
	uarch.UBpred:   "Bpred",
	uarch.UITB:     "ITB",
	uarch.UDTB:     "DTB",
	uarch.UIntReg:  "IntReg",
	uarch.UIntExec: "IntExec",
	uarch.UIntMap:  "IntMap",
	uarch.UIntQ:    "IntQ",
	uarch.UFPReg:   "FPReg",
	uarch.UFPAdd:   "FPAdd",
	uarch.UFPMul:   "FPMul",
	uarch.UFPMap:   "FPMap",
	uarch.UFPQ:     "FPQ",
	uarch.ULdStQ:   "LdStQ",
}

// l2Blocks are the L2 array slices sharing the L2 unit's power.
var l2Blocks = []string{"L2", "L2_left", "L2_right"}

// Model converts activity samples to block power for a given floorplan.
type Model struct {
	cfg Config
	fp  *floorplan.Floorplan

	unitIdx   [uarch.NumUnits]int // block index per unit (-1 for L2)
	l2Idx     []int
	l2Share   []float64 // area shares of the L2 slices
	coreIdx   []int     // non-L2 block indices (clock tree targets)
	coreArea  float64
	totalArea float64
}

// New builds a power model for the floorplan (normally floorplan.EV6()).
func New(cfg Config, fp *floorplan.Floorplan) (*Model, error) {
	if cfg.ClockHz <= 0 {
		return nil, fmt.Errorf("power: non-positive clock %g", cfg.ClockHz)
	}
	if cfg.IdleFrac < 0 || cfg.IdleFrac > 1 {
		return nil, fmt.Errorf("power: idle fraction %g out of [0,1]", cfg.IdleFrac)
	}
	m := &Model{cfg: cfg, fp: fp}
	for u, name := range unitBlock {
		bi := fp.Index(name)
		if bi < 0 {
			return nil, fmt.Errorf("power: floorplan lacks block %q for unit %v", name, u)
		}
		m.unitIdx[u] = bi
	}
	m.unitIdx[uarch.UL2] = -1
	var l2Area float64
	for _, name := range l2Blocks {
		bi := fp.Index(name)
		if bi < 0 {
			return nil, fmt.Errorf("power: floorplan lacks L2 slice %q", name)
		}
		m.l2Idx = append(m.l2Idx, bi)
		l2Area += fp.Blocks[bi].Area()
	}
	for _, bi := range m.l2Idx {
		m.l2Share = append(m.l2Share, fp.Blocks[bi].Area()/l2Area)
	}
	isL2 := map[int]bool{}
	for _, bi := range m.l2Idx {
		isL2[bi] = true
	}
	for bi, b := range fp.Blocks {
		m.totalArea += b.Area()
		if !isL2[bi] {
			m.coreIdx = append(m.coreIdx, bi)
			m.coreArea += b.Area()
		}
	}
	return m, nil
}

// Floorplan returns the model's floorplan.
func (m *Model) Floorplan() *floorplan.Floorplan { return m.fp }

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// BlockPower converts one activity sample into per-block power in floorplan
// order (W). Leakage is evaluated at the reference temperature; use
// LeakageScale for temperature feedback.
func (m *Model) BlockPower(s uarch.ActivitySample) []float64 {
	out := make([]float64, m.fp.N())
	if s.Cycles == 0 {
		return out
	}
	dt := float64(s.Cycles) / m.cfg.ClockHz
	for u := uarch.Unit(0); u < uarch.NumUnits; u++ {
		eJ := m.cfg.EnergyNJ[u] * 1e-9
		dyn := eJ * float64(s.Counts[u]) / dt
		idle := m.cfg.IdleFrac * eJ * m.cfg.PeakRate[u] * m.cfg.ClockHz
		m.deposit(out, u, dyn+idle)
	}
	// Clock tree over core blocks, leakage over everything, by area.
	for _, bi := range m.coreIdx {
		out[bi] += m.cfg.ClockTreeW * m.fp.Blocks[bi].Area() / m.coreArea
	}
	for bi, b := range m.fp.Blocks {
		out[bi] += m.cfg.LeakageW * b.Area() / m.totalArea
	}
	return out
}

// ActivityPower writes one activity sample's dynamic power into dyn, per
// block in floorplan order: energy-per-access × counts over an explicit
// wall-clock interval (s). Passing the wall-clock interval rather than
// deriving it from the sample's cycle count matters for closed-loop
// co-simulation: a throttled CPU executes fewer cycles in the same
// wall-clock step, and its dynamic energy must be spread over the step, not
// the cycles.
//
// The always-on StaticPower and the leakage are excluded — closed-loop
// callers add the temperature-dependent LeakagePower of the current state
// instead of the flat reference term BlockPower folds in. BlockPower(s)
// equals dyn + StaticPower() + LeakagePower(T_ref) when wallDT matches the
// sample's own interval.
func (m *Model) ActivityPower(s uarch.ActivitySample, wallDT float64, dyn []float64) error {
	if !(wallDT > 0) {
		return fmt.Errorf("power: non-positive interval %g", wallDT)
	}
	if len(dyn) != m.fp.N() {
		return fmt.Errorf("power: got %d blocks to fill, floorplan has %d", len(dyn), m.fp.N())
	}
	clear(dyn)
	for u := uarch.Unit(0); u < uarch.NumUnits; u++ {
		m.deposit(dyn, u, m.cfg.EnergyNJ[u]*1e-9*float64(s.Counts[u])/wallDT)
	}
	return nil
}

// StaticPower returns the always-on power at nominal voltage and frequency,
// per block in floorplan order: the idle (imperfect clock gating) term plus
// the clock tree. It does not depend on activity, so a closed-loop caller
// computes it once.
func (m *Model) StaticPower() []float64 {
	static := make([]float64, m.fp.N())
	for u := uarch.Unit(0); u < uarch.NumUnits; u++ {
		eJ := m.cfg.EnergyNJ[u] * 1e-9
		m.deposit(static, u, m.cfg.IdleFrac*eJ*m.cfg.PeakRate[u]*m.cfg.ClockHz)
	}
	for _, bi := range m.coreIdx {
		static[bi] += m.cfg.ClockTreeW * m.fp.Blocks[bi].Area() / m.coreArea
	}
	return static
}

// deposit adds unit u's power p to its block, or splits it over the L2
// slices by area.
func (m *Model) deposit(dst []float64, u uarch.Unit, p float64) {
	if bi := m.unitIdx[u]; bi >= 0 {
		dst[bi] += p
		return
	}
	for k, l2bi := range m.l2Idx {
		dst[l2bi] += p * m.l2Share[k]
	}
}

// Trace converts a run of activity samples into a power trace. All samples
// must share one interval length (as produced by CPU.Run); trailing partial
// samples are dropped.
func (m *Model) Trace(samples []uarch.ActivitySample) (*trace.PowerTrace, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("power: no samples")
	}
	cycles := samples[0].Cycles
	interval := float64(cycles) / m.cfg.ClockHz
	tr, err := trace.New(m.fp.Names(), interval)
	if err != nil {
		return nil, err
	}
	for _, s := range samples {
		if s.Cycles != cycles {
			continue // partial tail interval
		}
		if err := tr.Append(m.BlockPower(s)); err != nil {
			return nil, err
		}
	}
	if len(tr.Rows) == 0 {
		return nil, fmt.Errorf("power: all samples were partial")
	}
	return tr, nil
}

// LeakageScale returns the multiplicative leakage factor at the given block
// temperature: 2^((T − T_ref)/T_double). The paper's future-work section
// notes this feedback complicates deriving AIR-SINK behaviour from
// OIL-SILICON measurements; the DTM co-simulation applies it per block.
func (m *Model) LeakageScale(tempC float64) float64 {
	return math.Pow(2, (tempC-m.cfg.LeakRefC)/m.cfg.LeakDoubleC)
}

// LeakagePower writes the per-block leakage (W) at the given per-block
// temperatures (°C, floorplan order) into leak.
func (m *Model) LeakagePower(blockTempC, leak []float64) error {
	if len(blockTempC) != m.fp.N() || len(leak) != m.fp.N() {
		return fmt.Errorf("power: got %d temperatures and %d blocks to fill, floorplan has %d", len(blockTempC), len(leak), m.fp.N())
	}
	for bi, b := range m.fp.Blocks {
		base := m.cfg.LeakageW * b.Area() / m.totalArea
		leak[bi] = base * m.LeakageScale(blockTempC[bi])
	}
	return nil
}
