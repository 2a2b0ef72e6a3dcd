// Package rcnet models lumped thermal RC networks: nodes with heat
// capacitances, thermal conductances between nodes, conductances to a fixed
// ambient, and per-node power injection. It provides steady-state solves,
// explicit (adaptive RK4) and implicit (backward Euler) transient
// integration, and dominant-time-constant extraction.
//
// The electrical analogy follows the paper's Fig. 7: temperature ↔ voltage,
// heat flow ↔ current, thermal resistance ↔ electrical resistance, heat
// capacity ↔ capacitance, dissipated power ↔ current source, ambient ↔
// ground at T_amb.
package rcnet

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/linalg"
	"repro/internal/ode"
)

// Network is a thermal RC network under construction. The zero value is not
// usable; create one with New.
type Network struct {
	names   []string
	byName  map[string]int
	cap     []float64 // heat capacitance per node, J/K
	ambG    []float64 // conductance to ambient per node, W/K
	pairs   map[[2]int]float64
	ambient float64 // ambient temperature, K
}

// New creates an empty network with the given ambient temperature (Kelvin).
func New(ambient float64) *Network {
	return &Network{
		byName:  make(map[string]int),
		pairs:   make(map[[2]int]float64),
		ambient: ambient,
	}
}

// Ambient returns the ambient temperature in Kelvin.
func (n *Network) Ambient() float64 { return n.ambient }

// N returns the number of nodes.
func (n *Network) N() int { return len(n.names) }

// AddNode adds a node with the given heat capacitance (J/K) and returns its
// index. Capacitance must be positive: the transient solvers integrate every
// node as a dynamic state. (Physically tiny layers get their physically tiny
// capacitance, which the implicit integrator handles without trouble.)
func (n *Network) AddNode(name string, capacitance float64) int {
	if name == "" {
		panic("rcnet: empty node name")
	}
	if _, dup := n.byName[name]; dup {
		panic(fmt.Sprintf("rcnet: duplicate node %q", name))
	}
	if capacitance <= 0 || math.IsNaN(capacitance) {
		panic(fmt.Sprintf("rcnet: node %q needs positive capacitance, got %g", name, capacitance))
	}
	idx := len(n.names)
	n.names = append(n.names, name)
	n.byName[name] = idx
	n.cap = append(n.cap, capacitance)
	n.ambG = append(n.ambG, 0)
	return idx
}

// Index returns the index of the named node, or -1.
func (n *Network) Index(name string) int {
	if i, ok := n.byName[name]; ok {
		return i
	}
	return -1
}

// Name returns the name of node i.
func (n *Network) Name(i int) string { return n.names[i] }

// Connect adds a thermal conductance g = 1/R (W/K) between nodes i and j.
// Repeated calls accumulate (parallel resistances).
func (n *Network) Connect(i, j int, g float64) {
	if i == j {
		panic("rcnet: self connection")
	}
	if g <= 0 || math.IsInf(g, 0) || math.IsNaN(g) {
		panic(fmt.Sprintf("rcnet: invalid conductance %g between %d and %d", g, i, j))
	}
	n.checkIndex(i)
	n.checkIndex(j)
	if i > j {
		i, j = j, i
	}
	n.pairs[[2]int{i, j}] += g
}

// ConnectR is Connect expressed as a resistance (K/W).
func (n *Network) ConnectR(i, j int, r float64) {
	if r <= 0 {
		panic(fmt.Sprintf("rcnet: invalid resistance %g", r))
	}
	n.Connect(i, j, 1/r)
}

// ConnectAmbient adds conductance g (W/K) from node i to the ambient.
func (n *Network) ConnectAmbient(i int, g float64) {
	if g <= 0 || math.IsInf(g, 0) || math.IsNaN(g) {
		panic(fmt.Sprintf("rcnet: invalid ambient conductance %g at %d", g, i))
	}
	n.checkIndex(i)
	n.ambG[i] += g
}

// ConnectAmbientR is ConnectAmbient expressed as a resistance (K/W).
func (n *Network) ConnectAmbientR(i int, r float64) {
	if r <= 0 {
		panic(fmt.Sprintf("rcnet: invalid ambient resistance %g", r))
	}
	n.ConnectAmbient(i, 1/r)
}

func (n *Network) checkIndex(i int) {
	if i < 0 || i >= len(n.names) {
		panic(fmt.Sprintf("rcnet: node index %d out of range", i))
	}
}

// CholeskyMaxFill caps the factor Compile accepts: a network whose
// symbolic analysis predicts nnz(L+D+Lᵀ) beyond this multiple of nnz(A) is
// refused with an error wrapping linalg.ErrCholeskyFill. Every served model
// class orders to at most 10.8× under AMD (measured in DESIGN.md §7.2);
// genuinely 3-D grids — the reference solver's territory — blow far past
// this.
const CholeskyMaxFill = 40

// Solver is an assembled network ready for simulation. It holds the
// conductance system as a supernodal LDLᵀ factor plus a shared cache of
// backward-Euler factors, one per step size. Create with Compile; a Solver
// must not outlive subsequent mutations of its Network.
//
// SteadyState, DominantTimeConstant and HeatFlowToAmbient are safe to call
// from any number of goroutines (per-call scratch comes from an internal
// pool). The fixed-dt stepping methods (StepBE, TransientBE) share one
// per-solver width-1 stepping session and must not be called concurrently;
// concurrent stepping goes through the lockstep replay loop (Replay), which
// keeps all mutable state per call.
type Solver struct {
	net *Network
	// op is the factored conductance (Laplacian + ambient) matrix: diag
	// holds the sum of all conductances incident to i, off-diagonal (i,j) =
	// -g(i,j).
	op     *linalg.CholeskyOperator
	invCap []float64
	// ambRHS is the constant G_amb·T_amb right-hand-side term, precomputed
	// so the stepping hot path performs no per-node multiply for it.
	ambRHS []float64
	wsPool sync.Pool // *linalg.Workspace scratch for the steady entry points

	// serial is the lazily-created width-1 stepping session backing StepBE
	// and TransientBE; concurrent replays create their own sessions instead.
	serial *batchSession

	// beOps caches backward-Euler factors (C/dt + A) per step size, shared
	// by every session on this solver: the first session to step at a given
	// dt factors (single-flight), later sessions — e.g. a service's whole
	// session pool replaying same-interval traces — reuse the factor and
	// run solve-only steps. Bounded at beCacheCap distinct step sizes;
	// beyond that factors are built uncached (sessions still hold the
	// factor for their current dt, so repeated same-dt stepping never
	// refactors either way).
	beMu  sync.Mutex
	beOps map[float64]*beEntry

	// stats aggregates solver counters across all sessions.
	stats solverStats
}

// beCacheCap bounds the per-solver (dt → operator) cache.
const beCacheCap = 16

type beEntry struct {
	once sync.Once
	op   *linalg.CholeskyOperator
	err  error
}

// batchWidthBuckets labels the batch-width histogram: how many right-hand
// sides each batched step solved per factor traversal.
var batchWidthBuckets = [...]string{"1", "2", "3-4", "5-8", "9-16", "17-32", "33-64", "65+"}

// batchBucket maps a batch width to its histogram bucket.
func batchBucket(w int) int {
	switch {
	case w <= 1:
		return 0
	case w == 2:
		return 1
	case w <= 4:
		return 2
	case w <= 8:
		return 3
	case w <= 16:
		return 4
	case w <= 32:
		return 5
	case w <= 64:
		return 6
	default:
		return 7
	}
}

// kernelWidthLabels names the solve-kernel widths the factor
// dispatches over (linalg.Workspace.KernelSolves slot order).
var kernelWidthLabels = [...]string{"1", "4", "8"}

// solverStats holds the solver's atomic counters; SolverStats is the
// exported snapshot.
type solverStats struct {
	factorizations atomic.Int64
	factorReuses   atomic.Int64
	directSteps    atomic.Int64
	stepSolveNanos atomic.Int64
	batchHist      [len(batchWidthBuckets)]atomic.Int64
	kernelSolves   [len(kernelWidthLabels)]atomic.Int64
}

func (st *solverStats) recordBatchWidth(w int) {
	st.batchHist[batchBucket(w)].Add(1)
}

// absorbKernels drains a workspace's per-width kernel-solve counters into
// the solver's atomics (read-and-reset: workspaces are per-goroutine, the
// solver aggregate is shared).
func (st *solverStats) absorbKernels(ws *linalg.Workspace) {
	for i, v := range ws.KernelSolves {
		if v != 0 {
			st.kernelSolves[i].Add(v)
			ws.KernelSolves[i] = 0
		}
	}
}

// SolverStats is a snapshot of a solver's counters. All counters
// aggregate over every session of the solver since Compile.
type SolverStats struct {
	// Factorizations counts numeric matrix factorizations: the eager
	// factorization at Compile plus one per distinct backward-Euler step
	// size.
	Factorizations int64 `json:"factorizations"`
	// FactorReuses counts backward-Euler factor requests served from the
	// per-solver (dt → factor) cache instead of factoring.
	FactorReuses int64 `json:"factor_reuses"`
	// DirectSteps counts backward-Euler steps (one per state per step).
	DirectSteps int64 `json:"direct_steps"`
	// CGSteps is always 0: every step is a factor solve. It stays for
	// readers that still sum it with DirectSteps.
	CGSteps int64 `json:"-"`
	// StepSolveNanos estimates cumulative wall time inside backward-Euler
	// step solves (sampled one solve in eight and scaled, so the clock reads
	// don't tax the hot path; a batched solve's time covers all its columns);
	// divide by DirectSteps for the mean per-state solve latency.
	StepSolveNanos int64 `json:"step_solve_nanos"`
	// Supernodes and MaxPanelRows describe the supernodal factor: the
	// number of dense panels and the tallest panel's row count.
	Supernodes   int `json:"supernodes,omitempty"`
	MaxPanelRows int `json:"max_panel_rows,omitempty"`
	// BatchWidths histograms the backward-Euler solves by how many
	// right-hand sides each solved per factor traversal (buckets
	// "1".."65+"). Every step runs through the one batched step, so the
	// "1" bucket counts single-state steps (Solver.StepBE, TransientBE) too.
	BatchWidths map[string]int64 `json:"batch_widths,omitempty"`
	// KernelSolves counts sparse triangular-solve kernel invocations by
	// register-block width ("1", "4", "8"): one batched step over K
	// right-hand sides runs 8-wide passes, then a remainder of 5–7 as one
	// padded 8-wide pass, of 4 as one 4-wide pass and of 1–3 as single
	// solves (e.g. K=31 → four 8-wide invocations, the last padded).
	KernelSolves map[string]int64 `json:"kernel_solves,omitempty"`
}

// Stats snapshots the solver's counters.
func (s *Solver) Stats() SolverStats {
	out := SolverStats{
		Factorizations: s.stats.factorizations.Load(),
		FactorReuses:   s.stats.factorReuses.Load(),
		DirectSteps:    s.stats.directSteps.Load(),
		StepSolveNanos: s.stats.stepSolveNanos.Load(),
		Supernodes:     s.op.Supernodes(),
		MaxPanelRows:   s.op.MaxPanelRows(),
	}
	for i := range s.stats.batchHist {
		if v := s.stats.batchHist[i].Load(); v > 0 {
			if out.BatchWidths == nil {
				out.BatchWidths = make(map[string]int64, len(batchWidthBuckets))
			}
			out.BatchWidths[batchWidthBuckets[i]] = v
		}
	}
	for i := range s.stats.kernelSolves {
		if v := s.stats.kernelSolves[i].Load(); v > 0 {
			if out.KernelSolves == nil {
				out.KernelSolves = make(map[string]int64, len(kernelWidthLabels))
			}
			out.KernelSolves[kernelWidthLabels[i]] = v
		}
	}
	return out
}

// getWS borrows a workspace from the solver's pool; putWS returns it.
func (s *Solver) getWS() *linalg.Workspace {
	if v := s.wsPool.Get(); v != nil {
		return v.(*linalg.Workspace)
	}
	return &linalg.Workspace{}
}

func (s *Solver) putWS(ws *linalg.Workspace) {
	s.stats.absorbKernels(ws)
	s.wsPool.Put(ws)
}

// Compile assembles the network into a solver: it verifies every node has
// a path to ambient (otherwise the conductance matrix is singular and the
// steady state unbounded), then factors the conductance matrix with the
// supernodal LDLᵀ. A network whose predicted factor fill exceeds
// CholeskyMaxFill is refused with an error wrapping linalg.ErrCholeskyFill.
func (n *Network) Compile() (*Solver, error) {
	sz := n.N()
	if sz == 0 {
		return nil, fmt.Errorf("rcnet: empty network")
	}
	if err := n.checkGrounded(); err != nil {
		return nil, err
	}
	op, err := linalg.NewCholeskyOperator(linalg.NewCSR(sz, n.assemble()), CholeskyMaxFill)
	if err != nil {
		return nil, fmt.Errorf("rcnet: factor conductance matrix: %w", err)
	}
	inv := make([]float64, sz)
	for i, c := range n.cap {
		inv[i] = 1 / c
	}
	amb := make([]float64, sz)
	for i, g := range n.ambG {
		amb[i] = g * n.ambient
	}
	s := &Solver{net: n, op: op, invCap: inv, ambRHS: amb, beOps: make(map[float64]*beEntry)}
	s.stats.factorizations.Add(1) // the factorization is eager
	return s, nil
}

// assemble emits the conductance system in coordinate form. Pairs are
// visited in sorted order and the diagonal is accumulated in that same
// order, so floating-point accumulation (and therefore every downstream
// result) is deterministic across runs.
func (n *Network) assemble() []linalg.Coord {
	sz := n.N()
	keys := make([][2]int, 0, len(n.pairs))
	for ij := range n.pairs {
		keys = append(keys, ij)
	}
	sort.Slice(keys, func(x, y int) bool {
		if keys[x][0] != keys[y][0] {
			return keys[x][0] < keys[y][0]
		}
		return keys[x][1] < keys[y][1]
	})
	diag := make([]float64, sz)
	entries := make([]linalg.Coord, 0, 2*len(keys)+sz)
	for _, ij := range keys {
		g := n.pairs[ij]
		i, j := ij[0], ij[1]
		diag[i] += g
		diag[j] += g
		entries = append(entries,
			linalg.Coord{I: i, J: j, V: -g},
			linalg.Coord{I: j, J: i, V: -g})
	}
	for i, g := range n.ambG {
		diag[i] += g
	}
	for i, d := range diag {
		entries = append(entries, linalg.Coord{I: i, J: i, V: d})
	}
	return entries
}

// checkGrounded verifies every node reaches a node with an ambient
// conductance through the pair graph. The factorization would also catch
// the resulting singularity, but only as a zero pivot; the structural check
// names the floating node.
func (n *Network) checkGrounded() error {
	sz := n.N()
	parent := make([]int, sz)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for ij := range n.pairs {
		a, b := find(ij[0]), find(ij[1])
		if a != b {
			parent[a] = b
		}
	}
	grounded := make(map[int]bool, sz)
	for i, g := range n.ambG {
		if g > 0 {
			grounded[find(i)] = true
		}
	}
	for i := 0; i < sz; i++ {
		if !grounded[find(i)] {
			return fmt.Errorf("rcnet: network has no path to ambient (floating island at node %q)", n.names[i])
		}
	}
	return nil
}

// SteadyState returns the equilibrium temperatures (Kelvin) for constant
// per-node power injection (W). power must have length N. Safe for
// concurrent use.
func (s *Solver) SteadyState(power []float64) []float64 {
	ws := s.getWS()
	defer s.putWS(ws)
	return s.op.Solve(s.rhs(power), nil, ws)
}

// rhs builds P + G_amb·T_amb.
func (s *Solver) rhs(power []float64) []float64 {
	if len(power) != s.net.N() {
		panic(fmt.Sprintf("rcnet: power vector length %d, want %d", len(power), s.net.N()))
	}
	rhs := make([]float64, len(power))
	for i := range rhs {
		rhs[i] = power[i] + s.ambRHS[i]
	}
	return rhs
}

// AmbientVector returns temperatures all equal to the ambient, the usual
// cold-start initial condition.
func (s *Solver) AmbientVector() []float64 {
	t := make([]float64, s.net.N())
	linalg.Fill(t, s.net.ambient)
	return t
}

// derivs computes dT/dt = C⁻¹ (P + G_amb·T_amb − A·T). The A·T product is a
// sparse mat-vec, O(nnz).
func (s *Solver) derivs(power []float64) ode.Derivs {
	at := make([]float64, s.net.N())
	return func(_ float64, temp, dst []float64) {
		s.op.Apply(temp, at)
		for i := range dst {
			dst[i] = (power[i] + s.ambRHS[i] - at[i]) * s.invCap[i]
		}
	}
}

// TransientOptions configure transient integration.
type TransientOptions struct {
	// AbsTol is the adaptive-RK4 per-step tolerance in Kelvin
	// (default 1e-4 K).
	AbsTol float64
	// MaxStep caps the adaptive integrator's step size (0 = no cap). Use it
	// to bound the power-constant interval or to force resolution of fast
	// features the error estimator might step over.
	MaxStep float64
}

// Transient advances temp (in place) by duration seconds under constant
// power using the adaptive RK4 integrator. Returns integrator statistics.
func (s *Solver) Transient(temp, power []float64, duration float64, opt TransientOptions) (ode.Stats, error) {
	if len(temp) != s.net.N() {
		return ode.Stats{}, fmt.Errorf("rcnet: temperature vector length %d, want %d", len(temp), s.net.N())
	}
	aOpt := ode.AdaptiveOptions{AbsTol: opt.AbsTol, MaxStep: opt.MaxStep}
	return ode.AdaptiveRK4(s.derivs(power), 0, temp, duration, aOpt)
}

// beOperator factors the backward-Euler matrix (C/dt + A) from the
// conductance factor: the shift reuses its symbolic analysis and performs a
// numeric refactorization only.
func (s *Solver) beOperator(dt float64) (*linalg.CholeskyOperator, error) {
	shift := make([]float64, s.net.N())
	for i, c := range s.net.cap {
		shift[i] = c / dt
	}
	op, err := s.op.Shift(shift)
	if err != nil {
		return nil, fmt.Errorf("rcnet: backward Euler operator: %w", err)
	}
	s.stats.factorizations.Add(1)
	return op, nil
}

// beOperatorCached returns the backward-Euler factor for dt through the
// per-solver cache: one factorization per (solver, dt), single-flight, any
// number of concurrent sessions. Past beCacheCap distinct step sizes new
// factors are built uncached.
func (s *Solver) beOperatorCached(dt float64) (*linalg.CholeskyOperator, error) {
	s.beMu.Lock()
	e, ok := s.beOps[dt]
	if !ok {
		if len(s.beOps) >= beCacheCap {
			s.beMu.Unlock()
			return s.beOperator(dt)
		}
		e = &beEntry{}
		s.beOps[dt] = e
	}
	s.beMu.Unlock()
	e.once.Do(func() { e.op, e.err = s.beOperator(dt) })
	if ok && e.err == nil {
		s.stats.factorReuses.Add(1)
	}
	return e.op, e.err
}

// StepBE advances temp (in place) by one backward-Euler step of size dt
// under constant power. Backward Euler is unconditionally stable, which
// makes it the right integrator for the stiff networks that mix the tiny
// oil-boundary-layer capacitance with the large heatsink capacitance. The
// (C/dt + A) factor is cached across calls with the same dt. On error, temp
// is left unchanged.
func (s *Solver) StepBE(temp, power []float64, dt float64) error {
	if s.serial == nil {
		s.serial = s.newBatchSession(1)
	}
	return s.serial.step1(temp, power, dt)
}

// TransientBE advances temp by duration using fixed backward-Euler steps of
// size dt. A real remainder is one shorter last step; a remainder within
// 1e-9·dt of dt is the rounding of summed steps and takes a full step, so
// it does not factor a second BE matrix.
func (s *Solver) TransientBE(temp, power []float64, duration, dt float64) error {
	if duration <= 0 {
		return fmt.Errorf("rcnet: non-positive duration %g", duration)
	}
	t := 0.0
	for t < duration-1e-15*duration {
		step := dt
		if rem := duration - t; rem < dt-1e-9*dt {
			step = rem
		}
		if err := s.StepBE(temp, power, step); err != nil {
			return err
		}
		t += step
	}
	return nil
}

// DominantTimeConstant estimates the slowest thermal time constant of the
// network (seconds) by power iteration on A⁻¹·C. This is the long-term
// warmup constant discussed in §4.1.1 of the paper. Safe for concurrent use.
func (s *Solver) DominantTimeConstant() float64 {
	sz := s.net.N()
	v := make([]float64, sz)
	linalg.Fill(v, 1)
	ws := s.getWS()
	defer s.putWS(ws)
	var lambda float64
	for it := 0; it < 200; it++ {
		// w = A⁻¹ C v.
		w := s.op.Solve(scaleCopy(s.net.cap, v), nil, ws)
		norm := linalg.Norm2(w)
		if norm == 0 {
			return 0
		}
		linalg.Scale(1/norm, w)
		newLambda := linalg.Dot(w, s.op.Solve(scaleCopy(s.net.cap, w), nil, ws))
		if math.Abs(newLambda-lambda) < 1e-12*math.Abs(newLambda) {
			return newLambda
		}
		lambda = newLambda
		v = w
	}
	return lambda
}

func scaleCopy(c, v []float64) []float64 {
	out := make([]float64, len(v))
	for i := range v {
		out[i] = c[i] * v[i]
	}
	return out
}

// HeatFlowToAmbient returns, for the given temperature field, the heat (W)
// leaving the network through each node's ambient conductance. Summed over
// all nodes at steady state it equals the injected power (energy
// conservation).
func (s *Solver) HeatFlowToAmbient(temp []float64) []float64 {
	out := make([]float64, s.net.N())
	for i := range out {
		out[i] = s.net.ambG[i] * (temp[i] - s.net.ambient)
	}
	return out
}
