package service

import (
	"sync"
	"sync/atomic"

	"repro/internal/admission"
	"repro/internal/pctl"
	"repro/internal/tstore"
)

// latencyRing records the most recent solve latencies (milliseconds) in a
// shared pctl.Ring and reports percentiles over that window. Bounded
// memory, lock held only for a copy.
type latencyRing struct {
	mu sync.Mutex
	r  *pctl.Ring
}

func newLatencyRing(size int) *latencyRing {
	return &latencyRing{r: pctl.NewRing(size)}
}

func (l *latencyRing) add(ms float64) {
	l.mu.Lock()
	l.r.Add(ms)
	l.mu.Unlock()
}

// percentiles returns the requested nearest-rank percentiles (0..100) over
// the window, plus the window size and the total observation count ever
// recorded (the two diverge once the ring wraps; callers must not conflate
// them).
func (l *latencyRing) percentiles(ps ...float64) (vals []float64, window, total int) {
	l.mu.Lock()
	cp := l.r.Window(nil)
	total = l.r.Total()
	l.mu.Unlock()
	return pctl.Percentiles(cp, ps...), len(cp), total
}

// metrics aggregates service counters. All fields are safe for concurrent
// update. The in-flight and queued gauges live in the admission controller
// (exact under its mutex — the old atomic check-after-increment gauge could
// transiently overcount); Server.Stats sources them from there.
type metrics struct {
	mu       sync.Mutex
	requests map[string]int64 // per endpoint

	rejectedQueueFull   atomic.Int64
	rejectedRateLimited atomic.Int64
	deadlineExceeded    atomic.Int64
	badRequests         atomic.Int64
	solveErrors         atomic.Int64

	degradedSolves  atomic.Int64
	persistDeferred atomic.Int64

	solveLatency *latencyRing
}

func newMetrics() *metrics {
	return &metrics{requests: make(map[string]int64), solveLatency: newLatencyRing(1024)}
}

func (m *metrics) countRequest(endpoint string) {
	m.mu.Lock()
	m.requests[endpoint]++
	m.mu.Unlock()
}

func (m *metrics) requestCounts() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.requests))
	for k, v := range m.requests {
		out[k] = v
	}
	return out
}

// LatencyStats summarizes the solve-latency window. The percentiles cover
// only the Window most recent observations (the ring's contents); Total
// counts every observation ever recorded.
type LatencyStats struct {
	Window int     `json:"window"`
	Total  int     `json:"total"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// SolverPathStats aggregates the per-path linear-solver counters over every
// resident cached model: which backends the models compiled onto, how
// backward-Euler steps split between direct factor-solves and the CG
// fallback, how often factorizations were reused, and the mean triangular /
// CG solve latency per step.
type SolverPathStats struct {
	// Backends counts resident models per solver backend name
	// ("dense", "cholesky", "sparse").
	Backends map[string]int `json:"backends"`
	// Factorizations counts numeric factorizations (compile-time plus one
	// per distinct backward-Euler step size per model).
	Factorizations int64 `json:"factorizations"`
	// FactorReuses counts backward-Euler operator requests served from a
	// model's (dt → factor) cache instead of factoring.
	FactorReuses int64 `json:"factor_reuses"`
	// DirectSteps and CGSteps split transient steps by solve path.
	DirectSteps int64 `json:"direct_steps"`
	CGSteps     int64 `json:"cg_steps"`
	// CGIterations totals conjugate-gradient iterations across CGSteps.
	CGIterations int64 `json:"cg_iterations"`
	// MeanStepSolveUS is the mean per-step solve latency in microseconds
	// (triangular solves on the direct paths, CG iteration on the
	// fallback), over all steps of all resident models.
	MeanStepSolveUS float64 `json:"mean_step_solve_us"`
	// Supernodes totals the supernodal panels across every resident
	// direct-backend factor; MaxPanelRows is the tallest panel among them
	// (the factor's working-set headline).
	Supernodes   int64 `json:"supernodes"`
	MaxPanelRows int   `json:"max_panel_rows"`
	// BatchWidths histograms batched solves by how many right-hand sides
	// each solved per factor traversal (buckets "1".."65+"), summed over
	// resident models. Sweep, replay-batch and scenario-grid traffic lands
	// here; single-state stepping does not.
	BatchWidths map[string]int64 `json:"batch_widths,omitempty"`
	// KernelSolves counts sparse triangular-solve kernel invocations by
	// register-block width ("1", "4", "8", "16"), summed over resident
	// models: how batched steps actually decomposed onto the wide kernels.
	KernelSolves map[string]int64 `json:"kernel_solves,omitempty"`
	// Reduced summarizes the reduced-order models among the residents;
	// absent when none compiled onto the reduced backend.
	Reduced *ReducedStats `json:"reduced,omitempty"`
}

// ReducedStats aggregates reduced-order solver state (DESIGN.md §10) over
// the resident models that carry a reduction basis.
type ReducedStats struct {
	// Models counts resident models on the reduced backend (including any
	// that have since tripped to their full fallback).
	Models int `json:"models"`
	// MaxOrder is the largest reduction basis among them.
	MaxOrder int `json:"max_order"`
	// MaxProjError is the worst a-priori projection error estimate
	// (relative residual of the basis-construction input columns).
	MaxProjError float64 `json:"max_proj_error"`
	// Steps counts backward-Euler steps answered by a reduced solve.
	Steps int64 `json:"steps"`
	// Fallbacks counts automatic trips to the full backend (construction
	// failures plus residual-gate violations).
	Fallbacks int64 `json:"fallbacks"`
}

// DegradeStats reports the graceful-degradation rungs (DESIGN.md §12): how
// often solves dropped to the reduced-order backend and how telemetry
// persistence fell back from synchronous to buffered-with-retry.
type DegradeStats struct {
	// DegradedSolves counts solves served by the reduced-order backend
	// because queue pressure crossed the degrade threshold.
	DegradedSolves int64 `json:"degraded_solves"`
	// PersistDeferred counts requests whose telemetry flush failed and was
	// handed to the background retrier (response carried persist_pending).
	PersistDeferred int64 `json:"persist_deferred"`
	// PersistRetries counts background flush attempts; PersistRecovered
	// counts retry episodes that reached a clean flush; PersistPending is
	// true while a retry loop is still working.
	PersistRetries   int64 `json:"persist_retries"`
	PersistRecovered int64 `json:"persist_recovered"`
	PersistPending   bool  `json:"persist_pending,omitempty"`
}

// Stats is the /v1/stats payload.
type Stats struct {
	Requests          map[string]int64 `json:"requests"`
	RejectedQueueFull int64            `json:"rejected_queue_full"`
	// RejectedRateLimited counts 429s from per-tenant token buckets.
	RejectedRateLimited int64           `json:"rejected_rate_limited"`
	DeadlineExceeded    int64           `json:"deadline_exceeded"`
	BadRequests         int64           `json:"bad_requests"`
	SolveErrors         int64           `json:"solve_errors"`
	InFlight            int64           `json:"in_flight"`
	Queued              int64           `json:"queued"`
	Cache               CacheStats      `json:"cache"`
	CacheHitRate        float64         `json:"cache_hit_rate"`
	SolveLatency        LatencyStats    `json:"solve_latency"`
	Solver              SolverPathStats `json:"solver"`
	// Degrade reports the graceful-degradation counters.
	Degrade DegradeStats `json:"degrade"`
	// Admission is the per-tenant admission snapshot: quotas' effect
	// (admitted/shed counts), queue-wait percentiles, and the live
	// pressure/draining state.
	Admission *admission.Snapshot `json:"admission,omitempty"`
	// Telemetry summarizes the attached tstore (absent when the server runs
	// without one).
	Telemetry *tstore.Stats `json:"telemetry,omitempty"`
}

func (m *metrics) snapshot(cache *ModelCache) Stats {
	ps, window, total := m.solveLatency.percentiles(50, 90, 99)
	cs := cache.Stats()
	hitRate := 0.0
	if total := cs.Hits + cs.Misses; total > 0 {
		hitRate = float64(cs.Hits) / float64(total)
	}
	solver := SolverPathStats{Backends: make(map[string]int)}
	for _, cm := range cache.Models() {
		solver.Backends[cm.Model.SolverBackend()]++
		st := cm.Model.SolverStats()
		solver.Factorizations += st.Factorizations
		solver.FactorReuses += st.FactorReuses
		solver.DirectSteps += st.DirectSteps
		solver.CGSteps += st.CGSteps
		solver.CGIterations += st.CGIterations
		solver.Supernodes += int64(st.Supernodes)
		if st.MaxPanelRows > solver.MaxPanelRows {
			solver.MaxPanelRows = st.MaxPanelRows
		}
		for bucket, count := range st.BatchWidths {
			if solver.BatchWidths == nil {
				solver.BatchWidths = make(map[string]int64)
			}
			solver.BatchWidths[bucket] += count
		}
		for width, count := range st.KernelSolves {
			if solver.KernelSolves == nil {
				solver.KernelSolves = make(map[string]int64)
			}
			solver.KernelSolves[width] += count
		}
		if steps := st.DirectSteps + st.CGSteps; steps > 0 {
			solver.MeanStepSolveUS += float64(st.StepSolveNanos) / 1e3
		}
		if st.ReducedOrder > 0 || st.ReducedFallbacks > 0 {
			if solver.Reduced == nil {
				solver.Reduced = &ReducedStats{}
			}
			r := solver.Reduced
			r.Models++
			if st.ReducedOrder > r.MaxOrder {
				r.MaxOrder = st.ReducedOrder
			}
			if st.ReducedProjError > r.MaxProjError {
				r.MaxProjError = st.ReducedProjError
			}
			r.Steps += st.ReducedSteps
			r.Fallbacks += st.ReducedFallbacks
		}
	}
	if steps := solver.DirectSteps + solver.CGSteps; steps > 0 {
		solver.MeanStepSolveUS /= float64(steps)
	}
	return Stats{
		Requests:            m.requestCounts(),
		RejectedQueueFull:   m.rejectedQueueFull.Load(),
		RejectedRateLimited: m.rejectedRateLimited.Load(),
		DeadlineExceeded:    m.deadlineExceeded.Load(),
		BadRequests:         m.badRequests.Load(),
		SolveErrors:         m.solveErrors.Load(),
		Cache:               cs,
		CacheHitRate:        hitRate,
		SolveLatency:        LatencyStats{Window: window, Total: total, P50MS: ps[0], P90MS: ps[1], P99MS: ps[2]},
		Solver:              solver,
		Degrade: DegradeStats{
			DegradedSolves:  m.degradedSolves.Load(),
			PersistDeferred: m.persistDeferred.Load(),
		},
	}
}
