package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/hotspot"
	"repro/internal/ircam"
	"repro/internal/pool"
	"repro/internal/trace"
	"repro/internal/tstore"
)

// Config tunes the server.
type Config struct {
	// CacheCap is the compiled-model cache capacity (default 32 models).
	CacheCap int
	// MaxConcurrent bounds simultaneously-running solves (default 4; the
	// worker pools inside a sweep count as one slot).
	MaxConcurrent int
	// QueueDepth bounds requests waiting for a solve slot; beyond it the
	// server sheds load with 429 (default 64).
	QueueDepth int
	// DefaultTimeout is the per-request deadline when the request carries
	// none (default 30 s).
	DefaultTimeout time.Duration
	// DefaultQuota is the admission quota for tenants without an entry in
	// Tenants. The zero quota means unmetered: no rate limit, weight 1,
	// bounded only by the global slots and queue.
	DefaultQuota admission.Quota
	// Tenants maps tenant name (the X-Tenant request header) to its
	// admission quota.
	Tenants map[string]admission.Quota
	// DrainTimeout bounds graceful shutdown: after Serve's context is
	// cancelled, in-flight solves get this long to finish while new
	// requests shed with 503 (default 5 s).
	DrainTimeout time.Duration
	// Store, when non-nil, enables the telemetry endpoints: transient and
	// scenario requests can persist their series into it, and GET /v1/query
	// serves time ranges back out. Without a store the query endpoints
	// answer 503 and persist requests answer 400.
	Store *tstore.Store
}

func (c Config) defaulted() Config {
	if c.CacheCap <= 0 {
		c.CacheCap = 32
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	return c
}

// Server is the thermal simulation service.
type Server struct {
	cfg       Config
	cache     *ModelCache
	admission *admission.Controller
	retrier   *flushRetrier
	metrics   *metrics
	mux       *http.ServeMux
}

// New builds a server from the (defaulted) config.
func New(cfg Config) *Server {
	cfg = cfg.defaulted()
	s := &Server{
		cfg:   cfg,
		cache: NewModelCache(cfg.CacheCap),
		admission: admission.New(admission.Config{
			Slots:      cfg.MaxConcurrent,
			QueueDepth: cfg.QueueDepth,
			Default:    cfg.DefaultQuota,
			Tenants:    cfg.Tenants,
		}),
		metrics: newMetrics(),
		mux:     http.NewServeMux(),
	}
	if cfg.Store != nil {
		s.retrier = newFlushRetrier(cfg.Store)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/steady", s.handleSteady)
	s.mux.HandleFunc("POST /v1/transient", s.handleTransient)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/invert", s.handleInvert)
	s.mux.HandleFunc("POST /v1/scenario", s.handleScenario)
	s.mux.HandleFunc("POST /v1/scenario/stream", s.handleScenarioStream)
	// Telemetry read path (answers 503 until a store is configured).
	s.mux.HandleFunc("GET /v1/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/query/stream", s.handleQueryStream)
	s.mux.HandleFunc("GET /v1/query/series", s.handleQuerySeries)
	return s
}

// Handler returns the HTTP handler serving every endpoint.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the model cache (stats, tests).
func (s *Server) Cache() *ModelCache { return s.cache }

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	st := s.metrics.snapshot(s.cache)
	adm := s.admission.Stats()
	st.Admission = &adm
	st.InFlight = int64(adm.InFlight)
	st.Queued = int64(adm.Queued)
	if s.retrier != nil {
		st.Degrade.PersistRetries, st.Degrade.PersistRecovered, st.Degrade.PersistPending = s.retrier.stats()
	}
	if s.cfg.Store != nil {
		ts := s.cfg.Store.Stats()
		st.Telemetry = &ts
	}
	return st
}

// --- admission control ---

// maxTenantName bounds the X-Tenant header: the admission controller keeps
// per-tenant state forever, so unbounded client-chosen names would be an
// unbounded-memory vector.
const maxTenantName = 64

// admit gates one request through the admission controller, resolving the
// tenant from the X-Tenant header ("default" when absent). On rejection it
// has already written the response — 429 (rate/queue shed) or 503
// (draining), both with a Retry-After header, or 504 for a deadline
// exceeded while queued — and returns ok == false. On success the caller
// must defer dec.Release().
func (s *Server) admit(w http.ResponseWriter, r *http.Request, ctx context.Context) (*admission.Decision, bool) {
	tenant := r.Header.Get("X-Tenant")
	if len(tenant) > maxTenantName {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("X-Tenant longer than %d bytes", maxTenantName))
		return nil, false
	}
	dec, err := s.admission.Admit(ctx, tenant)
	if err == nil {
		return dec, true
	}
	var shed *admission.ShedError
	switch {
	case errors.As(err, &shed):
		switch shed.Reason {
		case admission.ReasonDraining:
			s.failRetryAfter(w, http.StatusServiceUnavailable, shed.RetryAfter,
				fmt.Errorf("server draining for shutdown"))
		case admission.ReasonRate:
			s.metrics.rejectedRateLimited.Add(1)
			s.failRetryAfter(w, http.StatusTooManyRequests, shed.RetryAfter, err)
		default: // global or per-tenant queue bound
			s.metrics.rejectedQueueFull.Add(1)
			s.failRetryAfter(w, http.StatusTooManyRequests, shed.RetryAfter, err)
		}
	default: // context deadline or cancellation while queued
		s.metrics.deadlineExceeded.Add(1)
		s.fail(w, http.StatusGatewayTimeout, fmt.Errorf("deadline exceeded while queued: %v", err))
	}
	return nil, false
}

// BeginDrain puts the server into shutdown mode: queued waiters are evicted
// and every subsequent request is shed with 503 + Retry-After. In-flight
// solves run to completion. Serve calls this when its context is cancelled;
// it is idempotent and exported for callers running their own http.Server.
func (s *Server) BeginDrain() {
	s.admission.Drain()
	if s.retrier != nil {
		s.retrier.stop()
	}
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.admission.Draining() }

// deadline derives the request context with the per-request timeout.
func (s *Server) deadline(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), d)
}

// model resolves a spec through the compiled-model cache.
func (s *Server) model(spec ModelSpec) (*CachedModel, string, error) {
	cfg, err := spec.config()
	if err != nil {
		return nil, "", err
	}
	cm, hit, err := s.cache.Get(cfg.Fingerprint(), func() (*hotspot.Model, error) {
		return hotspot.New(cfg)
	})
	state := "miss"
	if hit {
		state = "hit"
	}
	return cm, state, err
}

// --- response helpers ---

// jsonBufs recycles response encode buffers.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON encodes v before committing the status, so a value encoding/json
// rejects — an infinite temperature, say — answers 500 with the JSON error,
// counted in solve_errors, instead of a 200 with an empty body.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer jsonBufs.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		s.fail(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes()) // the client is gone when this fails
}

func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	if code == http.StatusBadRequest {
		s.metrics.badRequests.Add(1)
	}
	if code == http.StatusInternalServerError {
		s.metrics.solveErrors.Add(1)
	}
	s.writeJSON(w, code, errorResponse{Error: err.Error()})
}

// failRetryAfter writes an error response carrying a Retry-After header.
// Every 429 and 503 the server emits goes through here: shed clients always
// learn when a retry could succeed (docs/api.md, Conventions).
func (s *Server) failRetryAfter(w http.ResponseWriter, code int, retry time.Duration, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retry)))
	s.fail(w, code, err)
}

// retryAfterSeconds rounds a retry hint up to whole seconds (the header has
// no sub-second form), floored at 1.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// --- endpoints ---

// handleHealthz is pure liveness: 200 as long as the process can answer,
// draining or not. Restart decisions key off this; routing decisions must
// not — that is /readyz's job.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 503 while draining so fleets and load
// balancers stop routing here before shutdown completes, 200 otherwise.
// Liveness and readiness split deliberately — a draining process is alive
// (do not restart it) but not ready (do not send it work).
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.admission.Draining() {
		w.Header().Set("Retry-After", "1")
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.metrics.countRequest("stats")
	s.writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleSteady(w http.ResponseWriter, r *http.Request) {
	s.metrics.countRequest("steady")
	var req SteadyRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	if len(req.Power) == 0 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("empty power map"))
		return
	}
	ctx, cancel := s.deadline(r, req.TimeoutMS)
	defer cancel()
	dec, ok := s.admit(w, r, ctx)
	if !ok {
		return
	}
	defer dec.Release()

	start := time.Now()
	cm, cacheState, err := s.model(req.Model)
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("model: %w", err))
		return
	}
	vec, err := cm.Model.PowerVector(req.Power)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if ctx.Err() != nil {
		s.metrics.deadlineExceeded.Add(1)
		s.fail(w, http.StatusGatewayTimeout, ctx.Err())
		return
	}
	se := cm.Session()
	res := se.SteadyState(vec)
	cm.Release(se)
	solveMS := float64(time.Since(start)) / float64(time.Millisecond)
	s.metrics.solveLatency.add(solveMS)

	hotName, hotC := res.Hottest()
	s.writeJSON(w, http.StatusOK, SteadyResponse{
		BlockC:       blockMap(cm.Model, res.BlocksC()),
		HottestBlock: hotName,
		HottestC:     hotC,
		SpreadC:      res.Spread(),
		Cache:        cacheState,
		SolveMS:      solveMS,
	})
}

// blockMap zips floorplan names with per-block values.
func blockMap(m *hotspot.Model, vals []float64) map[string]float64 {
	names := m.Floorplan().Names()
	out := make(map[string]float64, len(names))
	for i, n := range names {
		out[n] = vals[i]
	}
	return out
}

// ctxRowReader aborts a streamed replay between rows once the request
// deadline passes (solver steps themselves are not interruptible).
type ctxRowReader struct {
	ctx context.Context
	rr  trace.RowReader
}

func (c *ctxRowReader) Names() []string   { return c.rr.Names() }
func (c *ctxRowReader) Interval() float64 { return c.rr.Interval() }
func (c *ctxRowReader) Next(dst []float64) error {
	if err := c.ctx.Err(); err != nil {
		return fmt.Errorf("deadline exceeded mid-replay: %w", err)
	}
	return c.rr.Next(dst)
}

// handleTransient replays a power trace. Two request shapes:
//
//   - Content-Type application/json: a TransientRequest with the trace
//     inline.
//   - any other Content-Type: the body is the raw trace stream (ptrace,
//     CSV or NDJSON, auto-detected) and the model spec arrives in query
//     parameters (floorplan, flp, package, direction, rconv, secondary,
//     ambient_c, interval, max_points, persist, timeout_ms). Replay begins as soon
//     as the header line arrives; memory stays O(one row).
//
// Streamed and inline replays of the same rows return bit-identical
// temperatures.
func (s *Server) handleTransient(w http.ResponseWriter, r *http.Request) {
	s.metrics.countRequest("transient")
	streaming := !isJSONRequest(r)

	var (
		req    TransientRequest
		rr     trace.RowReader
		inline *trace.PowerTrace
	)
	if streaming {
		var err error
		var interval float64
		req, interval, err = transientQueryParams(r)
		if err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
		// The request deadline must also bound blocking reads of the body:
		// without a read deadline a stalled client would hold its solve
		// slot forever (the between-rows ctx check never runs while Next is
		// blocked inside a Read).
		d := s.cfg.DefaultTimeout
		if req.TimeoutMS > 0 {
			d = time.Duration(req.TimeoutMS) * time.Millisecond
		}
		_ = http.NewResponseController(w).SetReadDeadline(time.Now().Add(d))
		dec, err := trace.NewDecoder(r.Body, trace.DecoderOptions{DefaultInterval: interval})
		if err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
		rr = dec
	} else {
		if err := decodeJSON(r, &req); err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
			return
		}
		if req.Trace == nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("missing trace"))
			return
		}
		tr, err := req.Trace.powerTrace()
		if err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
		inline = tr
		rr = tr.Reader()
	}

	ctx, cancel := s.deadline(r, req.TimeoutMS)
	defer cancel()
	dec, ok := s.admit(w, r, ctx)
	if !ok {
		return
	}
	defer dec.Release()

	start := time.Now()
	cm, cacheState, err := s.model(req.Model)
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("model: %w", err))
		return
	}
	if err := cm.Model.CheckTraceNames(rr.Names()); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}

	se := cm.Session()
	defer cm.Release(se)
	temps := cm.Model.AmbientState()
	if req.WarmStart {
		// Warm start needs the trace average, which only exists for inline
		// traces (a stream's average is unknown until EOF).
		if inline == nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("warm_start requires an inline trace"))
			return
		}
		avg, err := warmStartPower(cm.Model, inline)
		if err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
		temps = se.SteadyState(avg).Temps
	}
	pts, err := se.ReplayRows(temps, &ctxRowReader{ctx: ctx, rr: rr})
	if err != nil {
		code := http.StatusBadRequest
		if ctx.Err() != nil {
			code = http.StatusGatewayTimeout
			s.metrics.deadlineExceeded.Add(1)
		}
		s.fail(w, code, err)
		return
	}
	var persistedRows int64
	persistPending := false
	if tw, err := s.persistWriter(req.Persist); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	} else if tw != nil {
		// The full sampled series persists (MaxPoints only strides the JSON
		// reply), then flushes so the rows are in durable segments before the
		// response claims them persisted.
		err := hotspot.EmitTracePoints(tw, "", cm.Model.Floorplan().Names(), pts)
		switch {
		case errors.Is(err, tstore.ErrStagedFull):
			// The staging cap only binds while flushes are failing: rows were
			// dropped, so the honest answer is "retry later", and the retrier
			// works on draining the backlog meanwhile.
			s.kickRetrier()
			s.failRetryAfter(w, http.StatusServiceUnavailable, 0,
				fmt.Errorf("persist %q: %w", req.Persist, err))
			return
		case errors.Is(err, tstore.ErrOutOfOrder):
			// The run name already holds newer rows — client data error.
			s.fail(w, http.StatusBadRequest, fmt.Errorf("persist %q: %w", req.Persist, err))
			return
		case err == nil:
			err = tw.Flush()
		}
		if err != nil {
			// Degraded persistence (DESIGN.md §12): the rows are staged in
			// memory and the background retrier keeps flushing with backoff,
			// so a disk fault costs durability-on-ack, not the solve. The
			// response says so instead of claiming the rows durable.
			s.kickRetrier()
			s.metrics.persistDeferred.Add(1)
			persistPending = true
		} else {
			persistedRows = tw.Rows()
		}
	}
	solveMS := float64(time.Since(start)) / float64(time.Millisecond)
	s.metrics.solveLatency.add(solveMS)

	resp := transientResponse(cm.Model, pts, req.MaxPoints, cacheState, solveMS)
	if persistPending {
		resp.Persist, resp.PersistPending = req.Persist, true
	}
	if persistedRows > 0 {
		resp.Persist, resp.PersistedRows = req.Persist, persistedRows
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func isJSONRequest(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return true
	}
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct) == "application/json"
}

// transientQueryParams parses the streamed-transient parameters; interval
// is the trace's default row interval (0 when unset).
func transientQueryParams(r *http.Request) (req TransientRequest, interval float64, err error) {
	q := r.URL.Query()
	req.Model = ModelSpec{
		Floorplan: q.Get("floorplan"),
		FLP:       q.Get("flp"),
		Package:   q.Get("package"),
		Direction: q.Get("direction"),
		Secondary: q.Get("secondary") == "true",
	}
	if v := q.Get("rconv"); v != "" {
		if req.Model.Rconv, err = strconv.ParseFloat(v, 64); err != nil {
			return req, 0, fmt.Errorf("rconv: %v", err)
		}
	}
	if v := q.Get("ambient_c"); v != "" {
		if req.Model.AmbientC, err = strconv.ParseFloat(v, 64); err != nil {
			return req, 0, fmt.Errorf("ambient_c: %v", err)
		}
	}
	if v := q.Get("interval"); v != "" {
		if interval, err = strconv.ParseFloat(v, 64); err != nil {
			return req, 0, fmt.Errorf("interval: %v", err)
		}
	}
	if v := q.Get("max_points"); v != "" {
		if req.MaxPoints, err = strconv.Atoi(v); err != nil {
			return req, 0, fmt.Errorf("max_points: %v", err)
		}
	}
	if v := q.Get("timeout_ms"); v != "" {
		if req.TimeoutMS, err = strconv.Atoi(v); err != nil {
			return req, 0, fmt.Errorf("timeout_ms: %v", err)
		}
	}
	req.Persist = q.Get("persist")
	return req, interval, nil
}

// warmStartPower is the node-power vector of the trace's average.
func warmStartPower(m *hotspot.Model, tr *trace.PowerTrace) ([]float64, error) {
	avg := tr.Average()
	pm := make(map[string]float64, len(tr.Names))
	for i, n := range tr.Names {
		pm[n] = avg[i]
	}
	return m.PowerVector(pm)
}

// transientResponse assembles the reply: subsampled series plus final/peak
// maps.
func transientResponse(m *hotspot.Model, pts []hotspot.TracePoint, maxPoints int, cacheState string, solveMS float64) TransientResponse {
	names := m.Floorplan().Names()
	peak := make([]float64, len(names))
	final := pts[len(pts)-1].BlockC
	for i := range peak {
		peak[i] = pts[0].BlockC[i]
	}
	for _, p := range pts {
		for i, v := range p.BlockC {
			if v > peak[i] {
				peak[i] = v
			}
		}
	}
	keep := pts
	if maxPoints == 1 {
		keep = pts[len(pts)-1:]
	} else if maxPoints > 1 && len(pts) > maxPoints {
		keep = make([]hotspot.TracePoint, 0, maxPoints)
		stride := float64(len(pts)-1) / float64(maxPoints-1)
		for i := 0; i < maxPoints; i++ {
			keep = append(keep, pts[int(float64(i)*stride+0.5)])
		}
		keep[maxPoints-1] = pts[len(pts)-1]
	}
	out := TransientResponse{
		Blocks:  names,
		Points:  make([]PointJSON, len(keep)),
		FinalC:  blockMap(m, final),
		PeakC:   blockMap(m, peak),
		Steps:   len(pts) - 1,
		Cache:   cacheState,
		SolveMS: solveMS,
	}
	for i, p := range keep {
		out.Points[i] = PointJSON{TimeS: p.Time, BlockC: p.BlockC}
	}
	return out
}

// handleSweep runs batched scenarios: steady power maps solve across the
// request's worker budget, trace scenarios fan out through
// hotspot.ReplayBatchResults (the same lockstep core the experiment sweeps
// use).
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.metrics.countRequest("sweep")
	var req SweepRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	if len(req.Scenarios) == 0 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("no scenarios"))
		return
	}
	const maxScenarios = 256
	if len(req.Scenarios) > maxScenarios {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("%d scenarios, limit %d", len(req.Scenarios), maxScenarios))
		return
	}
	ctx, cancel := s.deadline(r, req.TimeoutMS)
	defer cancel()
	dec, ok := s.admit(w, r, ctx)
	if !ok {
		return
	}
	defer dec.Release()

	start := time.Now()
	results := make([]SweepResult, len(req.Scenarios))

	// Resolve every scenario's model first (cache + single-flight dedupes
	// repeats), then split steady and replay work.
	models := make([]*CachedModel, len(req.Scenarios))
	var replayJobs []hotspot.ReplayJob
	var replayIdx []int
	for i, sc := range req.Scenarios {
		cm, cacheState, err := s.model(sc.Model)
		if err != nil {
			results[i].Error = err.Error()
			continue
		}
		models[i] = cm
		results[i].Cache = cacheState
		switch {
		case sc.Trace != nil:
			tr, err := sc.Trace.powerTrace()
			if err != nil {
				results[i].Error = err.Error()
				models[i] = nil
				continue
			}
			if err := cm.Model.CheckTraceNames(tr.Names); err != nil {
				results[i].Error = err.Error()
				models[i] = nil
				continue
			}
			temps := cm.Model.AmbientState()
			if sc.WarmStart {
				avg, err := warmStartPower(cm.Model, tr)
				if err != nil {
					results[i].Error = err.Error()
					models[i] = nil
					continue
				}
				se := cm.Session()
				temps = se.SteadyState(avg).Temps
				cm.Release(se)
			}
			replayJobs = append(replayJobs, hotspot.ReplayJob{
				Model: cm.Model,
				Temps: temps,
				Rows:  &ctxRowReader{ctx: ctx, rr: tr.Reader()},
			})
			replayIdx = append(replayIdx, i)
		case len(sc.Power) > 0:
			// handled below
		default:
			results[i].Error = "scenario needs a power map or a trace"
			models[i] = nil
		}
	}

	// Steady scenarios across the worker pool.
	var steadyIdx []int
	for i, sc := range req.Scenarios {
		if models[i] != nil && sc.Trace == nil && len(sc.Power) > 0 {
			steadyIdx = append(steadyIdx, i)
		}
	}
	if len(steadyIdx) > 0 {
		pool.Run(len(steadyIdx), req.Workers, func() func(int) {
			return func(k int) {
				i := steadyIdx[k]
				cm := models[i]
				vec, err := cm.Model.PowerVector(req.Scenarios[i].Power)
				if err != nil {
					results[i].Error = err.Error()
					return
				}
				se := cm.Session()
				res := se.SteadyState(vec)
				cm.Release(se)
				results[i].BlockC = blockMap(cm.Model, res.BlocksC())
			}
		})
	}

	// Trace scenarios through the batched replay path, with per-job error
	// attribution.
	if len(replayJobs) > 0 {
		batch, batchErrs := hotspot.ReplayBatchResults(replayJobs, req.Workers)
		for k, i := range replayIdx {
			pts := batch[k]
			if batchErrs[k] != nil {
				results[i].Error = batchErrs[k].Error()
				continue
			}
			if pts == nil {
				results[i].Error = "replay produced no points"
				continue
			}
			cm := models[i]
			final := pts[len(pts)-1].BlockC
			peak := append([]float64(nil), pts[0].BlockC...)
			for _, p := range pts {
				for b, v := range p.BlockC {
					if v > peak[b] {
						peak[b] = v
					}
				}
			}
			results[i].BlockC = blockMap(cm.Model, final)
			results[i].PeakC = blockMap(cm.Model, peak)
		}
	}
	solveMS := float64(time.Since(start)) / float64(time.Millisecond)
	s.metrics.solveLatency.add(solveMS)
	s.writeJSON(w, http.StatusOK, SweepResponse{Results: results, SolveMS: solveMS})
}

// handleInvert recovers per-block power from observed temperatures through
// the model's influence matrix (the paper's §5.4 reverse engineering).
func (s *Server) handleInvert(w http.ResponseWriter, r *http.Request) {
	s.metrics.countRequest("invert")
	var req InvertRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	if len(req.ObservedC) == 0 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("empty observed_c map"))
		return
	}
	ctx, cancel := s.deadline(r, req.TimeoutMS)
	defer cancel()
	dec, ok := s.admit(w, r, ctx)
	if !ok {
		return
	}
	defer dec.Release()

	start := time.Now()
	cm, cacheState, err := s.model(req.Model)
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("model: %w", err))
		return
	}
	fp := cm.Model.Floorplan()
	observed := make([]float64, fp.N())
	for name, v := range req.ObservedC {
		bi := fp.Index(name)
		if bi < 0 {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("observed temperature for unknown block %q", name))
			return
		}
		observed[bi] = v
	}
	if len(req.ObservedC) != fp.N() {
		s.fail(w, http.StatusBadRequest,
			fmt.Errorf("observed_c has %d blocks, floorplan has %d", len(req.ObservedC), fp.N()))
		return
	}
	lambda := req.Lambda
	if lambda == 0 {
		lambda = 1e-6
	}
	if ctx.Err() != nil {
		s.metrics.deadlineExceeded.Add(1)
		s.fail(w, http.StatusGatewayTimeout, ctx.Err())
		return
	}
	p, err := ircam.InvertPower(cm.Model, observed, lambda)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	solveMS := float64(time.Since(start)) / float64(time.Millisecond)
	s.metrics.solveLatency.add(solveMS)
	var total float64
	for _, v := range p {
		total += v
	}
	s.writeJSON(w, http.StatusOK, InvertResponse{
		PowerW:  blockMap(cm.Model, p),
		TotalW:  total,
		Cache:   cacheState,
		SolveMS: solveMS,
	})
}

// kickRetrier wakes the background flush retrier (no-op without a store).
func (s *Server) kickRetrier() {
	if s.retrier != nil {
		s.retrier.kick()
	}
}

// Serve runs the server on addr until ctx is cancelled, then drains: the
// admission controller sheds new requests with 503 + Retry-After while
// in-flight solves get up to DrainTimeout to finish, and the background
// flush retrier stops after a final flush attempt. Closing the store (the
// caller owns it) performs the final durable flush after Serve returns.
func (s *Server) Serve(ctx context.Context, addr string) error {
	hs := &http.Server{Addr: addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		s.BeginDrain()
		shutCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			return err
		}
		if err := <-errc; err != nil && err != http.ErrServerClosed {
			return err
		}
		return nil
	}
}
