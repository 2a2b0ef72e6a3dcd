package scenario

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/dtm"
	"repro/internal/floorplan"
	"repro/internal/hotspot"
	"repro/internal/power"
	"repro/internal/uarch"
)

// Engine limits: specs are untrusted input and every grid cell is a full
// co-simulation, so the per-cell step count and the co-simulated CPU cycles
// are bounded up front instead of discovered by timeout. PR 6 raised the
// step cap from 200k (a 2M-step cell is ~2000 s of simulated time at the
// 1 ms control interval — long thermal-cycling studies — and the batched
// solve kernels keep it tractable); the cycle cap is unchanged.
//
// maxTapeInstrs caps the instructions one compiled scenario tapes (DESIGN.md
// §6.2): a workload phase is taped only if the most instructions its first
// entry can dispatch, uarch.CPUConfig.MaxInstrs of its nominal end cycle,
// fit in what earlier phases left. At 9 bytes per instruction that bounds
// a scenario's tapes to 36 MiB, and it covers 2^20 nominal cycles. A
// TapeCache holds at most as many.
const (
	maxCellSteps          = 2_000_000
	maxWorkloadCyclesCell = 1_000_000_000
	maxTapeInstrs         = 1 << 22
)

// Options tune Compile.
type Options struct {
	// Models resolves a hotspot.Config into a compiled model. nil compiles
	// directly; the simulation service passes a closure over its
	// single-flight model cache so grid packages share cached models with
	// every other endpoint (the cache key is Config.Fingerprint, identical
	// either way). Compile memoizes per-fingerprint within one call, so even
	// the direct path compiles each distinct package exactly once.
	Models func(hotspot.Config) (*hotspot.Model, error)
	// Ctx, when non-nil, bounds the expensive parts of Compile itself — the
	// nominal workload prepass and its tape recording (up to 1e9
	// co-simulated CPU cycles, checked every control step), model
	// resolution and the initial steady solves — so a deadline or client
	// disconnect cannot pin a serving slot in compilation. RunGrid takes its
	// own context.
	Ctx context.Context
	// Tapes, when non-nil, keeps the workload tapes the prepass records
	// across compiles: a taped phase whose recording the cache holds is
	// read, not simulated. The simulation service passes one cache per
	// server, as it does its model cache; nil records every taped phase in
	// every compile. A recording cut short by Ctx is never cached.
	Tapes *TapeCache
}

// Cell identifies one grid cell: a package × policy combination.
type Cell struct {
	// Index is the cell's position in the deterministic grid expansion
	// (packages outermost, then the PolicyGrid cross product).
	Index int
	// Package is the package label.
	Package string
	// Policy is the DTM policy of this cell.
	Policy dtm.Policy
}

// Metrics summarizes one closed-loop grid cell.
type Metrics struct {
	// DurationS is the simulated time (s).
	DurationS float64 `json:"duration_s"`
	// EngagedS is the total time DTM throttled (s); DutyCycle is its
	// fraction of the run.
	EngagedS  float64 `json:"engaged_s"`
	DutyCycle float64 `json:"duty_cycle"`
	// Engagements counts distinct trigger events.
	Engagements int `json:"engagements"`
	// PerfPenalty is the fraction of nominal throughput lost to throttling:
	// over workload phases it is measured as lost committed instructions
	// against the nominal (unthrottled) run of the same schedule; over trace
	// and pulse phases it accrues (1−PerfFactor) per engaged step.
	PerfPenalty float64 `json:"perf_penalty"`
	// ViolationS is total time the true hottest block exceeded EmergencyC;
	// CoveredViolationS is the part of it during which DTM was engaged, and
	// ViolationCoverage their ratio (1 when there were no violations —
	// nothing was missed). Low coverage under an active policy means the
	// sensors or the policy missed emergencies (§5.3/§5.4).
	ViolationS        float64 `json:"violation_s"`
	CoveredViolationS float64 `json:"covered_violation_s"`
	ViolationCoverage float64 `json:"violation_coverage"`
	// PeakC is the true peak block temperature; ObservedPeakC the hottest
	// sensor reading the controller saw.
	PeakC         float64 `json:"peak_c"`
	ObservedPeakC float64 `json:"observed_peak_c"`
	// InitialHotC and FinalHotC are the hottest block temperatures at the
	// first and after the last step.
	InitialHotC float64 `json:"initial_hot_c"`
	FinalHotC   float64 `json:"final_hot_c"`
	// Committed counts instructions committed in workload phases (0 for
	// pure trace/pulse scenarios).
	Committed uint64 `json:"committed,omitempty"`
}

// CellResult pairs a cell with its outcome.
type CellResult struct {
	Cell    Cell
	Metrics Metrics
	Err     error
}

type phaseKind int

const (
	phaseWorkload phaseKind = iota
	phaseTrace
	phasePulse
)

// compiledPhase is one schedule segment resolved against the floorplan.
type compiledPhase struct {
	name  string
	kind  phaseKind
	steps int

	// workload, from the named preset; tapeSteps is the step count of the
	// phase's first entry when the phase is taped (0 otherwise), and tape
	// its record, set by the prepass
	preset        string
	workload      uarch.Workload
	seed          int64
	cyclesPerStep float64
	tapeSteps     int
	tape          *uarch.Tape

	// trace: rows in floorplan order (unnamed blocks zero-filled)
	rows        [][]float64
	rowInterval float64

	// pulse
	pulseBlock         int
	peakW, baseW       float64
	onS, offS, periodS float64
}

// compiledPackage is one cooling configuration with its initial state.
type compiledPackage struct {
	label     string
	model     *hotspot.Model
	initTemps []float64
}

// Compiled is a scenario resolved against floorplan, models and the policy
// grid, ready to run. It is immutable after Compile and safe to share across
// goroutines.
type Compiled struct {
	spec     Spec
	fp       *floorplan.Floorplan
	dt       float64
	steps    int
	phases   []compiledPhase
	pkgs     []compiledPackage
	policies []dtm.Policy
	pm       *power.Model // non-nil iff the schedule has workload phases

	sensorIdx []int
	sensorOff []float64
	// static is the workload phases' always-on power and flatLeak their
	// reference-temperature leakage (both nil without workload phases),
	// precomputed because neither depends on the step.
	static   []float64
	flatLeak []float64

	// nominal (unthrottled) schedule statistics from the compile-time
	// prepass: the per-cell performance baseline and the initial-steady
	// operating point.
	nominalCommitted uint64
	workloadSteps    int
	avgBlockPower    []float64
}

// Name returns the scenario's label.
func (c *Compiled) Name() string { return c.spec.Name }

// Interval returns the control step (s).
func (c *Compiled) Interval() float64 { return c.dt }

// Steps returns the number of control steps each cell simulates.
func (c *Compiled) Steps() int { return c.steps }

// Cells returns the deterministic grid expansion: packages outermost, then
// the PolicyGrid cross product.
func (c *Compiled) Cells() []Cell {
	out := make([]Cell, 0, len(c.pkgs)*len(c.policies))
	for _, pkg := range c.pkgs {
		for _, pol := range c.policies {
			out = append(out, Cell{Index: len(out), Package: pkg.label, Policy: pol})
		}
	}
	return out
}

// Compile validates and resolves a spec: floorplan, thermal models (one per
// package, via Options.Models or a direct build), phase schedules, sensors
// and the expanded policy grid. It also runs the nominal (unthrottled)
// schedule once to fix the per-cell performance baseline and, when
// InitialSteady is set, the initial operating point. All spec-shaped
// failures return a *SpecError.
func Compile(spec *Spec, opts Options) (*Compiled, error) {
	if spec == nil {
		return nil, specErrf("(spec)", "nil spec")
	}
	c := &Compiled{spec: *spec}
	s := &c.spec
	if s.Interval == 0 {
		s.Interval = 1e-3
	}
	if s.Seed == 0 {
		s.Seed = 2009
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c.dt = s.Interval

	// Floorplan.
	var err error
	c.fp, err = resolveFloorplan(s)
	if err != nil {
		return nil, err
	}

	// Power model, if any phase steps the CPU.
	hasWorkload := false
	for _, p := range s.Phases {
		if p.Workload != "" {
			hasWorkload = true
		}
	}
	if hasWorkload {
		pcfg, err := powerConfig(s.Power)
		if err != nil {
			return nil, err
		}
		c.pm, err = power.New(pcfg, c.fp)
		if err != nil {
			return nil, specErrf("floorplan", "workload phases need the EV6 block set: %v", err)
		}
		c.static = c.pm.StaticPower()
		c.flatLeak = make([]float64, c.fp.N())
		if err := c.pm.LeakagePower(c.refTemps(), c.flatLeak); err != nil {
			return nil, err
		}
	}

	// Phases.
	for i, p := range s.Phases {
		cp, err := c.compilePhase(i, p)
		if err != nil {
			return nil, err
		}
		c.phases = append(c.phases, cp)
	}
	c.steps = 0
	sum := 0
	for _, p := range c.phases {
		sum += p.steps
	}
	if s.Duration > 0 {
		c.steps = int(math.Round(s.Duration / c.dt))
		if c.steps < 1 {
			c.steps = 1
		}
	} else {
		c.steps = sum
	}
	if c.steps > maxCellSteps {
		return nil, specErrf("duration", "scenario is %d control steps per cell, limit %d", c.steps, maxCellSteps)
	}
	if c.pm != nil {
		// Schedule arithmetic only — no producer, whose workload phase
		// entries take and reset a CPU.
		var cycles float64
		phase, inPhase := 0, 0
		for k := 0; k < c.steps; k++ {
			ph := &c.phases[phase]
			if ph.kind == phaseWorkload {
				cycles += ph.cyclesPerStep
			}
			if inPhase++; inPhase >= ph.steps {
				inPhase = 0
				phase = (phase + 1) % len(c.phases)
			}
		}
		if cycles > maxWorkloadCyclesCell {
			return nil, specErrf("interval", "scenario co-simulates %.3g CPU cycles per cell, limit %d (lower power.clock_hz or the duration)", cycles, int64(maxWorkloadCyclesCell))
		}
		c.planTapes()
	}

	// Sensors.
	for i, sv := range s.Sensors {
		bi := c.fp.Index(sv.Block)
		if bi < 0 {
			return nil, specErrf(fmt.Sprintf("sensors[%d].block", i), "unknown block %q", sv.Block)
		}
		c.sensorIdx = append(c.sensorIdx, bi)
		c.sensorOff = append(c.sensorOff, sv.OffsetC)
	}

	// Policy grid (each policy must survive controller quantization).
	c.policies, err = s.Policies.policies(c.dt)
	if err != nil {
		return nil, specErrf("policies", "%v", err)
	}
	for i, pol := range c.policies {
		if _, err := dtm.NewController(pol, c.dt); err != nil {
			return nil, specErrf("policies", "policy %d: %v", i, err)
		}
	}

	// Packages, through the model resolver (memoized by fingerprint so each
	// distinct configuration compiles exactly once per call even without a
	// shared cache).
	resolve := opts.Models
	if resolve == nil {
		resolve = func(cfg hotspot.Config) (*hotspot.Model, error) { return hotspot.New(cfg) }
	}
	memo := make(map[string]*hotspot.Model)
	for i, ps := range s.Packages {
		if err := compileCtxErr(opts.Ctx); err != nil {
			return nil, err
		}
		ambientC := ps.AmbientC
		if ambientC == 0 {
			ambientC = 45
		}
		cfg, err := core.BuildConfig(c.fp, core.PackageSpec{
			Kind:      ps.Kind,
			Rconv:     ps.Rconv,
			Direction: ps.Direction,
			Secondary: ps.Secondary,
			AmbientK:  ambientC + 273.15,
		})
		if err != nil {
			return nil, specErrf(fmt.Sprintf("packages[%d]", i), "%v", err)
		}
		fpr := cfg.Fingerprint()
		m := memo[fpr]
		if m == nil {
			if m, err = resolve(cfg); err != nil {
				return nil, specErrf(fmt.Sprintf("packages[%d]", i), "model: %v", err)
			}
			memo[fpr] = m
		}
		label := ps.Label
		if label == "" {
			label = cfg.Package.String()
		}
		c.pkgs = append(c.pkgs, compiledPackage{label: label, model: m})
	}

	if err := c.nominalPrepass(opts.Ctx, opts.Tapes); err != nil {
		return nil, err
	}
	for i := range c.pkgs {
		pkg := &c.pkgs[i]
		if err := compileCtxErr(opts.Ctx); err != nil {
			return nil, err
		}
		if s.InitialSteady {
			vec, err := pkg.model.BlockPowerVector(c.avgBlockPower)
			if err != nil {
				return nil, fmt.Errorf("scenario: package %q initial steady: %w", pkg.label, err)
			}
			pkg.initTemps = pkg.model.SteadyState(vec).Temps
		} else {
			pkg.initTemps = pkg.model.AmbientState()
		}
	}
	return c, nil
}

func resolveFloorplan(s *Spec) (*floorplan.Floorplan, error) {
	if s.FLP != "" {
		fp, err := floorplan.ParseInline(s.FLP)
		if err != nil {
			return nil, specErrf("flp", "%v", err)
		}
		return fp, nil
	}
	switch s.Floorplan {
	case "", "ev6":
		return floorplan.EV6(), nil
	case "athlon":
		return floorplan.Athlon(), nil
	default:
		return nil, specErrf("floorplan", "unknown floorplan %q (have ev6, athlon, or inline flp)", s.Floorplan)
	}
}

func powerConfig(ps *PowerSpec) (power.Config, error) {
	cfg := power.DefaultWattch()
	if ps == nil {
		return cfg, nil
	}
	set := func(field string, dst *float64, v float64) error {
		if v == 0 {
			return nil
		}
		if !finitePos(v) {
			return specErrf("power."+field, "must be positive and finite, got %g", v)
		}
		*dst = v
		return nil
	}
	for _, f := range []struct {
		name string
		dst  *float64
		v    float64
	}{
		{"clock_hz", &cfg.ClockHz, ps.ClockHz},
		{"clock_tree_w", &cfg.ClockTreeW, ps.ClockTreeW},
		{"leakage_w", &cfg.LeakageW, ps.LeakageW},
		{"leak_ref_c", &cfg.LeakRefC, ps.LeakRefC},
		{"leak_double_c", &cfg.LeakDoubleC, ps.LeakDoubleC},
	} {
		if err := set(f.name, f.dst, f.v); err != nil {
			return cfg, err
		}
	}
	if ps.IdleFrac != 0 {
		if ps.IdleFrac < 0 || ps.IdleFrac > 1 || math.IsNaN(ps.IdleFrac) {
			return cfg, specErrf("power.idle_frac", "must be in [0,1], got %g", ps.IdleFrac)
		}
		cfg.IdleFrac = ps.IdleFrac
	}
	return cfg, nil
}

func (c *Compiled) compilePhase(i int, p Phase) (compiledPhase, error) {
	cp := compiledPhase{name: p.Name}
	cp.steps = int(math.Round(p.Duration / c.dt))
	if cp.steps < 1 {
		cp.steps = 1
	}
	switch {
	case p.Workload != "":
		cp.kind = phaseWorkload
		cp.preset = p.Workload
		cp.workload, _ = uarch.Preset(p.Workload)
		cp.seed = c.spec.Seed + int64(i)
		cp.cyclesPerStep = c.dt * c.pm.Config().ClockHz
		if cp.cyclesPerStep < 1 {
			return cp, specErrf(fmt.Sprintf("phases[%d]", i),
				"interval %g at %g Hz co-simulates less than one CPU cycle per step", c.dt, c.pm.Config().ClockHz)
		}
	case p.Trace != nil:
		cp.kind = phaseTrace
		cp.rowInterval = p.Trace.Interval
		cols := make([]int, len(p.Trace.Names))
		for ci, name := range p.Trace.Names {
			bi := c.fp.Index(name)
			if bi < 0 {
				return cp, specErrf(fmt.Sprintf("phases[%d].trace.names[%d]", i, ci), "unknown block %q", name)
			}
			cols[ci] = bi
		}
		cp.rows = make([][]float64, len(p.Trace.Rows))
		for r, row := range p.Trace.Rows {
			full := make([]float64, c.fp.N())
			for ci, v := range row {
				full[cols[ci]] = v
			}
			cp.rows[r] = full
		}
	case p.Pulse != nil:
		cp.kind = phasePulse
		cp.pulseBlock = c.fp.Index(p.Pulse.Block)
		if cp.pulseBlock < 0 {
			return cp, specErrf(fmt.Sprintf("phases[%d].pulse.block", i), "unknown block %q", p.Pulse.Block)
		}
		cp.peakW = p.Pulse.PeakW
		cp.baseW = p.Pulse.BaseW
		cp.onS = p.Pulse.OnS
		cp.offS = p.Pulse.OffS
		cp.periodS = p.Pulse.OnS + p.Pulse.OffS
	}
	return cp, nil
}

// planTapes decides, from the spec alone, which workload phases the
// prepass tapes: in schedule order, each phase whose first entry's worst
// case fits what is left of maxTapeInstrs. The first entry is a phase's
// longest: a later one repeats it in full or ends the schedule early.
func (c *Compiled) planTapes() {
	left := uint64(maxTapeInstrs)
	start := 0 // the first entry's step in the schedule
	for i := range c.phases {
		ph := &c.phases[i]
		steps := min(max(c.steps-start, 0), ph.steps)
		start += ph.steps
		if ph.kind != phaseWorkload || steps == 0 {
			continue
		}
		var target float64
		for k := 0; k < steps; k++ {
			target += ph.cyclesPerStep
		}
		if n := uarch.DefaultCPU().MaxInstrs(uint64(target)); n <= left {
			ph.tapeSteps = steps
			left -= n
		}
	}
}

// producer walks the phase schedule step by step and fills per-step block
// power. Workload phases advance through the phase's instruction stream at
// the pace the controller's engagement allows — the closed loop; trace and
// pulse phases scale their rows by the policy's power multiplier.
type producer struct {
	c       *Compiled
	phase   int
	inPhase int
	entered int // phases entered so far

	// workload phase state: the cycles the phase owes so far; where its
	// instructions come from — the phase's tape, or for an untaped phase a
	// CPU taken from livePool at the first one and reset at each entry; and
	// the scratch for temperature-dependent leakage
	targetCycles float64
	tape         uarch.TapeReader
	live         *liveCPU
	leak         []float64
}

// liveCPU is a workload phase's CPU with the stream it executes, and the
// scratch tape the prepass records into.
type liveCPU struct {
	cpu    *uarch.CPU
	stream *uarch.Stream
	tape   uarch.Tape
}

// livePool holds the CPUs of the prepass and of producers of untaped
// phases. Every CPU is uarch.DefaultCPU(), so any pooled CPU serves any
// phase once reset.
var livePool sync.Pool

// startLive readies a CPU for workload phase ph — live, else one from
// livePool, else a new one — reset to exactly what a fresh CPU over a
// fresh, identically seeded stream would be: cold caches, an untrained
// predictor, the phase's seed. Which CPU runs a phase therefore never shows
// in its result.
func startLive(live *liveCPU, ph *compiledPhase) *liveCPU {
	if live == nil {
		live, _ = livePool.Get().(*liveCPU)
	}
	if live == nil {
		stream, err := uarch.NewStream(ph.workload, ph.seed)
		if err != nil {
			panic(fmt.Sprintf("scenario: compiled workload rejected: %v", err))
		}
		cpu, err := uarch.NewCPU(uarch.DefaultCPU(), stream)
		if err != nil {
			panic(fmt.Sprintf("scenario: compiled CPU rejected: %v", err))
		}
		return &liveCPU{cpu: cpu, stream: stream}
	}
	if err := live.stream.Reset(ph.workload, ph.seed); err != nil {
		panic(fmt.Sprintf("scenario: compiled workload rejected: %v", err))
	}
	if err := live.cpu.Reset(live.stream); err != nil {
		panic(fmt.Sprintf("scenario: compiled CPU rejected: %v", err))
	}
	return live
}

// enterPhase starts the current phase. A workload phase starts over from
// its first instruction: the start of its tape, or a reset CPU. Every grid
// cell therefore sees the same nominal instruction sequence and diverges
// only through closed-loop throttling.
func (p *producer) enterPhase() {
	p.entered++
	ph := &p.c.phases[p.phase]
	if ph.kind != phaseWorkload {
		return
	}
	p.targetCycles = 0
	if ph.tape != nil {
		p.tape = ph.tape.Reader()
		return
	}
	p.live = startLive(p.live, ph)
}

// workload advances the current workload phase until the cycle reached is
// at least end, the step's end cycle, and returns the step's activity.
func (p *producer) workload(ph *compiledPhase, end uint64) (uarch.ActivitySample, error) {
	if ph.tape != nil {
		return p.tape.ReadTo(end)
	}
	var agg uarch.ActivitySample
	cpu := p.live.cpu
	if cpu.Cycle() >= end {
		return agg, nil
	}
	samples, err := cpu.Run(end-cpu.Cycle(), end-cpu.Cycle())
	for _, s := range samples {
		agg.Committed += s.Committed
		for u := range agg.Counts {
			agg.Counts[u] += s.Counts[u]
		}
	}
	return agg, err
}

// release returns the producer's CPU, if it took one, to livePool. The
// producer must not step again.
func (p *producer) release() {
	if p.live != nil {
		livePool.Put(p.live)
		p.live = nil
	}
}

func (p *producer) advance() {
	p.inPhase++
	if p.inPhase >= p.c.phases[p.phase].steps {
		p.inPhase = 0
		p.phase = (p.phase + 1) % len(p.c.phases)
	}
}

// next fills blockPower for the current step and advances the schedule.
// progress is the CPU cycle-progress factor (1 nominal, PerfFactor while
// engaged); vScale/sScale scale dynamic and static power (DVFS voltage and
// frequency terms); rowScale multiplies trace/pulse rows; leakTempsC, when
// non-nil, evaluates workload leakage at those block temperatures instead of
// the reference.
func (p *producer) next(blockPower []float64, progress, vScale, sScale, rowScale float64, leakTempsC []float64) (committed uint64, err error) {
	c := p.c
	if p.inPhase == 0 {
		p.enterPhase()
	}
	ph := &c.phases[p.phase]
	switch ph.kind {
	case phaseWorkload:
		// The step ends at cycle floor(targetCycles). A throttled cell's
		// target never exceeds the nominal one (each term is at most
		// cyclesPerStep, and rounding is monotone), so it never reads past
		// the tape the nominal prepass recorded.
		p.targetCycles += ph.cyclesPerStep * progress
		agg, err := p.workload(ph, uint64(p.targetCycles))
		if err != nil {
			return 0, fmt.Errorf("scenario: workload step: %w", err)
		}
		if err := c.pm.ActivityPower(agg, c.dt, blockPower); err != nil {
			return 0, err
		}
		leak := c.flatLeak
		if leakTempsC != nil {
			if p.leak == nil {
				p.leak = make([]float64, len(blockPower))
			}
			leak = p.leak
			if err := c.pm.LeakagePower(leakTempsC, leak); err != nil {
				return 0, err
			}
		}
		for bi, dyn := range blockPower {
			blockPower[bi] = dyn*vScale + c.static[bi]*sScale + leak[bi]
		}
		committed = agg.Committed
	case phaseTrace:
		tau := float64(p.inPhase) * c.dt
		idx := int(tau/ph.rowInterval+1e-9) % len(ph.rows)
		row := ph.rows[idx]
		for bi := range blockPower {
			blockPower[bi] = row[bi] * rowScale
		}
	case phasePulse:
		tau := math.Mod(float64(p.inPhase)*c.dt, ph.periodS)
		w := ph.baseW
		if tau < ph.onS-1e-12 {
			w = ph.peakW
		}
		for bi := range blockPower {
			blockPower[bi] = 0
		}
		blockPower[ph.pulseBlock] = w * rowScale
	}
	p.advance()
	return committed, nil
}

// compileCtxErr reports whether an Options.Ctx deadline/cancellation should
// abort compilation; a nil ctx never aborts.
func compileCtxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("scenario: compile aborted: %w", err)
	}
	return nil
}

// refTemps returns the reference-temperature vector for flat leakage.
func (c *Compiled) refTemps() []float64 {
	ref := make([]float64, c.fp.N())
	for i := range ref {
		ref[i] = c.pm.Config().LeakRefC
	}
	return ref
}

// nominalPrepass takes the tapes from the cache or records them, then runs
// the schedule once without throttling to record the average nominal block
// power (the InitialSteady operating point) and the nominal
// committed-instruction baseline for PerfPenalty.
func (c *Compiled) nominalPrepass(ctx context.Context, tapes *TapeCache) error {
	if err := c.recordTapes(ctx, tapes); err != nil {
		return err
	}
	sums := make([]float64, c.fp.N())
	blockPower := make([]float64, c.fp.N())
	pr := &producer{c: c}
	defer pr.release()
	for k := 0; k < c.steps; k++ {
		// Per-step: one workload step can co-simulate millions of CPU
		// cycles, and ctx.Err is noise next to any step's real work.
		if err := compileCtxErr(ctx); err != nil {
			return err
		}
		isWorkload := c.phases[pr.phase].kind == phaseWorkload
		committed, err := pr.next(blockPower, 1, 1, 1, 1, nil)
		if err != nil {
			return err
		}
		if isWorkload {
			c.workloadSteps++
			c.nominalCommitted += committed
		}
		for bi, w := range blockPower {
			sums[bi] += w
		}
	}
	c.avgBlockPower = make([]float64, c.fp.N())
	for bi := range sums {
		c.avgBlockPower[bi] = sums[bi] / float64(c.steps)
	}
	return nil
}

// recordTapes gives every taped workload phase its tape: the one cached
// under the phase's key, or else a recording of its first entry, simulated
// once, unthrottled, into a pooled CPU's scratch tape and kept as an
// exact-size copy. Each control step's end cycle is the one the nominal
// producer computes, so the tape ends where the prepass's last step of the
// phase does. The recordings go into the cache only once all of them are
// whole, so a compile that ctx cuts short caches nothing.
func (c *Compiled) recordTapes(ctx context.Context, cache *TapeCache) error {
	var live *liveCPU
	defer func() {
		if live != nil {
			livePool.Put(live)
		}
	}()
	var recorded []int
	for i := range c.phases {
		ph := &c.phases[i]
		if ph.tapeSteps == 0 {
			continue
		}
		if ph.tape = cache.get(ph.tapeKey()); ph.tape != nil {
			continue
		}
		live = startLive(live, ph)
		live.tape.Reset()
		var target float64
		for k := 0; k < ph.tapeSteps; k++ {
			// Per control step, like the prepass: one step can
			// co-simulate millions of CPU cycles.
			if err := compileCtxErr(ctx); err != nil {
				return err
			}
			target += ph.cyclesPerStep
			live.cpu.Record(&live.tape, uint64(target))
		}
		ph.tape = live.tape.Clone()
		recorded = append(recorded, i)
	}
	for _, i := range recorded {
		ph := &c.phases[i]
		ph.tape = cache.put(ph.tapeKey(), ph.tape)
	}
	return nil
}

// RunGrid co-simulates every grid cell across a worker pool (workers ≤ 0 =
// GOMAXPROCS) and returns per-cell results indexed like Cells(). Every cell
// is one hotspot.RunLoops job whose power fill runs the cell's control step
// against its own live temperatures, so same-package cells share both the
// cached backward-Euler factor and each step's factor traversal (one
// batched solve per step for the lockstep group). Cells themselves stay
// fully independent (own place in each phase's tape or own CPU, own
// temperatures, own controller), and batching never changes per-column
// arithmetic, so the results are bit-identical for any worker count.
// onCell, when non-nil, is called once per cell as it finishes (any order,
// serialized) — the service's NDJSON streaming hook. ctx, when non-nil,
// aborts unfinished cells with its error once cancelled; finished cells
// keep their results.
func (c *Compiled) RunGrid(ctx context.Context, workers int, onCell func(CellResult)) []CellResult {
	return c.runGrid(ctx, workers, onCell, nil)
}

// TelemetrySink consumes the per-sensor observed temperatures a telemetry
// run records, one row per call as each control step lands. It is the
// per-row counterpart of hotspot.TelemetrySink, which takes a replay's
// whole series at once; tstore.Writer satisfies both, and its Append
// returns only rejected rows, so a failing disk fails no cell (the flush
// after the grid reports it). Implementations must be safe for concurrent
// use: grid workers append from multiple goroutines, though each individual
// series is only ever written by the one goroutine running its cell.
type TelemetrySink interface {
	Append(series string, tSeconds float64, valueC float64) error
}

// TelemetrySeries returns the series names cell cellIndex emits during a
// telemetry run: one "cell<index>/<block>" per configured sensor, or the
// single "cell<index>/hot" oracle series when the spec has no sensors.
func (c *Compiled) TelemetrySeries(cellIndex int) []string {
	if len(c.sensorIdx) == 0 {
		return []string{fmt.Sprintf("cell%d/hot", cellIndex)}
	}
	out := make([]string, len(c.sensorIdx))
	for i, sv := range c.spec.Sensors {
		out[i] = fmt.Sprintf("cell%d/%s", cellIndex, sv.Block)
	}
	return out
}

// RunGridTelemetry is RunGrid with a telemetry tap: at every controller
// sample step, each cell appends its sensed temperatures to sink — the
// per-sensor observed values (sensor block temperature plus offset), or the
// oracle hottest-block reading when the spec defines no sensors — under the
// series names TelemetrySeries describes, at the sample's simulation time
// in seconds. Sampling happens on the exact values the controller sees, so
// a persisted run is a faithful record of what the DTM loop observed. A
// sink error fails that cell (Err in its CellResult) without disturbing the
// rest of the grid. Telemetry never alters the simulation: results are
// bit-identical to RunGrid's.
func (c *Compiled) RunGridTelemetry(ctx context.Context, workers int, onCell func(CellResult), sink TelemetrySink) []CellResult {
	return c.runGrid(ctx, workers, onCell, sink)
}

func (c *Compiled) runGrid(ctx context.Context, workers int, onCell func(CellResult), sink TelemetrySink) []CellResult {
	cells := c.Cells()
	results := make([]CellResult, len(cells))
	var mu sync.Mutex
	done := func(r *cellRun, err error) {
		r.finished = true
		if r.pr != nil {
			r.pr.release()
		}
		results[r.cell.Index] = CellResult{Cell: r.cell, Metrics: r.m, Err: err}
		if onCell != nil {
			mu.Lock()
			defer mu.Unlock()
			onCell(results[r.cell.Index])
		}
	}
	runs := make([]*cellRun, len(cells))
	jobs := make([]hotspot.LoopJob, len(cells))
	for i, cell := range cells {
		pkg := &c.pkgs[i/len(c.policies)]
		r := &cellRun{c: c, ctx: ctx, sink: sink, cell: cell, model: pkg.model}
		r.temps = append([]float64(nil), pkg.initTemps...)
		r.m.DurationS = float64(c.steps) * c.dt
		r.m.PeakC = math.Inf(-1)
		r.m.ObservedPeakC = math.Inf(-1)
		if sink != nil {
			r.tel = c.TelemetrySeries(cell.Index)
		}
		runs[i] = r
		jobs[i] = hotspot.LoopJob{Model: pkg.model, Temps: r.temps, Step: c.dt, Power: func(blockPower []float64) error {
			err := r.step(blockPower)
			switch {
			case err == io.EOF:
				done(r, nil)
			case err != nil:
				done(r, err)
			}
			return err
		}}
	}
	// Failures outside a cell's own step (a panic, an invalid block power,
	// a stalled solve) surface here.
	for i, err := range hotspot.RunLoops(jobs, workers) {
		if err != nil && !runs[i].finished {
			done(runs[i], fmt.Errorf("scenario: cell %d: %w", i, err))
		}
	}
	return results
}

// cellRun is one grid cell's closed loop. Its step is the cell's power fill
// on the stepping core, which calls it once per control step with the
// cell's temperatures advanced in place in between.
type cellRun struct {
	c        *Compiled
	ctx      context.Context
	sink     TelemetrySink
	cell     Cell
	model    *hotspot.Model
	temps    []float64 // live thermal state
	k        int       // control steps taken
	ctrl     *dtm.Controller
	pr       *producer
	blocksC  []float64
	m        Metrics
	tel      []string // telemetry series names, nil unless a sink is attached
	finished bool     // result recorded

	// Step counts behind the time metrics, which finishCell multiplies by
	// the step once: summing dt per step would drift.
	engaged, violated, covered, engagedNonWork int
}

// step runs the cell's phase for control step r.k, in the serial engine's
// order (DESIGN.md §6): read the true state, account violations, sample
// sensors on the controller schedule, decide engagement, produce this
// step's block power under that engagement. The stepping core then
// advances every live cell's thermal state in one batched solve, so
// actuation alters the power of the step it triggers in and its thermal
// effect reaches the sensors one step later. After the last step, step
// computes the closing metrics and returns io.EOF.
func (r *cellRun) step(blockPower []float64) error {
	c := r.c
	if r.k == c.steps {
		c.finishCell(r)
		return io.EOF
	}
	if r.ctx != nil {
		if err := r.ctx.Err(); err != nil {
			return fmt.Errorf("scenario: aborted at step %d/%d: %w", r.k, c.steps, err)
		}
	}
	if r.k == 0 {
		ctrl, err := dtm.NewController(r.cell.Policy, c.dt)
		if err != nil {
			return err
		}
		r.ctrl = ctrl
		r.blocksC = make([]float64, c.fp.N())
		r.pr = &producer{c: c}
	}
	step := r.k
	r.model.BlocksCInto(r.temps, r.blocksC)
	hot := r.blocksC[0]
	for _, v := range r.blocksC {
		if v > hot {
			hot = v
		}
	}
	if step == 0 {
		r.m.InitialHotC = hot
	}
	if hot > r.m.PeakC {
		r.m.PeakC = hot
	}

	// Sense and decide.
	if r.ctrl.ShouldSample(step) {
		obs := math.Inf(-1)
		if len(c.sensorIdx) == 0 {
			obs = hot
		} else {
			for i, bi := range c.sensorIdx {
				if v := r.blocksC[bi] + c.sensorOff[i]; v > obs {
					obs = v
				}
			}
		}
		if r.tel != nil {
			// Record exactly what the controller is about to see, at the
			// sample's simulation time. A sink failure (disk full, store
			// closed) fails this cell and leaves the grid running.
			tSec := float64(step) * c.dt
			if len(c.sensorIdx) == 0 {
				if err := r.sink.Append(r.tel[0], tSec, obs); err != nil {
					return err
				}
			} else {
				for i, bi := range c.sensorIdx {
					if err := r.sink.Append(r.tel[i], tSec, r.blocksC[bi]+c.sensorOff[i]); err != nil {
						return err
					}
				}
			}
		}
		if obs > r.m.ObservedPeakC {
			r.m.ObservedPeakC = obs
		}
		r.ctrl.Observe(step, obs)
	}
	engaged := r.ctrl.Engaged(step)

	// Violation accounting against the true state.
	if hot > c.spec.EmergencyC {
		r.violated++
		if engaged {
			r.covered++
		}
	}

	// Produce this step's power under the engagement decision.
	pol := r.cell.Policy
	progress, vScale, sScale, rowScale := 1.0, 1.0, 1.0, 1.0
	if engaged {
		progress = pol.PerfFactor
		rowScale = pol.PowerScale()
		if pol.Actuator == dtm.DVFS {
			f := pol.PerfFactor
			vScale = f * f     // dynamic: energy/access ∝ V²
			sScale = f * f * f // static: idle/clock power ∝ f·V²
		}
	}
	isWorkload := c.phases[r.pr.phase].kind == phaseWorkload
	var leakTemps []float64
	if isWorkload && !c.spec.DisableLeakageFeedback {
		leakTemps = r.blocksC
	}
	committed, err := r.pr.next(blockPower, progress, vScale, sScale, rowScale, leakTemps)
	if err != nil {
		return err
	}
	r.m.Committed += committed
	if engaged {
		r.engaged++
		if !isWorkload {
			r.engagedNonWork++
		}
	}
	r.k++
	return nil
}

// finishCell computes a completed cell's closing metrics.
func (c *Compiled) finishCell(r *cellRun) {
	r.m.Engagements = r.ctrl.Engagements()
	r.model.BlocksCInto(r.temps, r.blocksC)
	r.m.FinalHotC = r.blocksC[0]
	for _, v := range r.blocksC {
		if v > r.m.FinalHotC {
			r.m.FinalHotC = v
		}
	}
	// The loop samples temperatures before each step, so the state after the
	// last step is otherwise unseen: fold it into the true peak (violation
	// time is a per-step integral and stays as accumulated — the final state
	// has no remaining duration).
	if r.m.FinalHotC > r.m.PeakC {
		r.m.PeakC = r.m.FinalHotC
	}
	r.m.EngagedS = float64(r.engaged) * c.dt
	r.m.ViolationS = float64(r.violated) * c.dt
	r.m.CoveredViolationS = float64(r.covered) * c.dt
	r.m.DutyCycle = r.m.EngagedS / r.m.DurationS

	// Performance penalty: instruction-measured over workload time,
	// engagement-fraction over the rest, blended by time share.
	var instrLoss float64
	if c.nominalCommitted > 0 {
		instrLoss = 1 - float64(r.m.Committed)/float64(c.nominalCommitted)
		if instrLoss < 0 {
			instrLoss = 0
		}
	}
	workloadTime := float64(c.workloadSteps) * c.dt
	nonWorkPen := float64(r.engagedNonWork) * c.dt * (1 - r.cell.Policy.PerfFactor)
	r.m.PerfPenalty = (instrLoss*workloadTime + nonWorkPen) / r.m.DurationS

	if r.m.ViolationS > 0 {
		r.m.ViolationCoverage = r.m.CoveredViolationS / r.m.ViolationS
	} else {
		r.m.ViolationCoverage = 1
	}
}
