package service

import (
	"sync"
	"sync/atomic"

	"repro/internal/admission"
	"repro/internal/pctl"
	"repro/internal/scenario"
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

	rejectedQueueFull atomic.Int64
	deadlineExceeded  atomic.Int64
	badRequests       atomic.Int64
	solveErrors       atomic.Int64

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

// SolverPathStats aggregates the linear-solver counters over every resident
// cached model: backward-Euler steps, how often factorizations were reused,
// and the mean triangular-solve latency per step.
type SolverPathStats struct {
	// Factorizations counts numeric factorizations (compile-time plus one
	// per distinct backward-Euler step size per model).
	Factorizations int64 `json:"factorizations"`
	// FactorReuses counts backward-Euler operator requests served from a
	// model's (dt → factor) cache instead of factoring.
	FactorReuses int64 `json:"factor_reuses"`
	// DirectSteps counts transient steps (one per state per step).
	DirectSteps int64 `json:"direct_steps"`
	// MeanStepSolveUS is the mean per-step triangular-solve latency in
	// microseconds, over all steps of all resident models.
	MeanStepSolveUS float64 `json:"mean_step_solve_us"`
	// Supernodes totals the supernodal panels across every resident
	// model's factor; MaxPanelRows is the tallest panel among them
	// (the factor's working-set headline).
	Supernodes   int64 `json:"supernodes"`
	MaxPanelRows int   `json:"max_panel_rows"`
	// BatchWidths histograms batched solves by how many right-hand sides
	// each solved per factor traversal (buckets "1".."65+"), summed over
	// resident models. Every backward-Euler step is a batched step, so
	// single-state stepping lands in the "1" bucket alongside sweep,
	// replay-batch and scenario-grid traffic.
	BatchWidths map[string]int64 `json:"batch_widths,omitempty"`
	// KernelSolves counts sparse triangular-solve kernel invocations by
	// register-block width ("1", "4", "8"), summed over resident models:
	// how batched steps actually decomposed onto the wide kernels.
	KernelSolves map[string]int64 `json:"kernel_solves,omitempty"`
}

// DegradeStats reports the buffered-telemetry rung of the degradation
// ladder (DESIGN.md §12): how often telemetry persistence fell back from
// synchronous to buffered-with-retry.
type DegradeStats struct {
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
	DeadlineExceeded  int64            `json:"deadline_exceeded"`
	BadRequests       int64            `json:"bad_requests"`
	SolveErrors       int64            `json:"solve_errors"`
	InFlight          int64            `json:"in_flight"`
	Queued            int64            `json:"queued"`
	Cache             CacheStats       `json:"cache"`
	CacheHitRate      float64          `json:"cache_hit_rate"`
	SolveLatency      LatencyStats     `json:"solve_latency"`
	Solver            SolverPathStats  `json:"solver"`
	// Degrade reports the graceful-degradation counters.
	Degrade DegradeStats `json:"degrade"`
	// ScenarioTapes reports the live-CPU scenarios' tape cache: a miss is
	// a workload phase simulated to record its tape, a hit one read from
	// an earlier request's.
	ScenarioTapes scenario.TapeCacheStats `json:"scenario_tapes"`
	// Admission is the admission controller's snapshot: per-tenant
	// admitted/shed counts and queue-wait percentiles, and the live
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
	var solver SolverPathStats
	for _, cm := range cache.Models() {
		st := cm.Model.SolverStats()
		solver.Factorizations += st.Factorizations
		solver.FactorReuses += st.FactorReuses
		solver.DirectSteps += st.DirectSteps
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
		solver.MeanStepSolveUS += float64(st.StepSolveNanos) / 1e3
	}
	if solver.DirectSteps > 0 {
		solver.MeanStepSolveUS /= float64(solver.DirectSteps)
	}
	return Stats{
		Requests:          m.requestCounts(),
		RejectedQueueFull: m.rejectedQueueFull.Load(),
		DeadlineExceeded:  m.deadlineExceeded.Load(),
		BadRequests:       m.badRequests.Load(),
		SolveErrors:       m.solveErrors.Load(),
		Cache:             cs,
		CacheHitRate:      hitRate,
		SolveLatency:      LatencyStats{Window: window, Total: total, P50MS: ps[0], P90MS: ps[1], P99MS: ps[2]},
		Solver:            solver,
		Degrade:           DegradeStats{PersistDeferred: m.persistDeferred.Load()},
	}
}
