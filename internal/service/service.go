package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/admission"
	"repro/internal/hotspot"
	"repro/internal/ircam"
	"repro/internal/pool"
	"repro/internal/scenario"
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
	tapes     *scenario.TapeCache // live-CPU scenarios' workload tapes
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
		tapes: scenario.NewTapeCache(),
		admission: admission.New(admission.Config{
			Slots:      cfg.MaxConcurrent,
			QueueDepth: cfg.QueueDepth,
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
	s.handle("POST /v1/steady", "steady", s.handleSteady)
	s.handle("POST /v1/transient", "transient", s.handleTransient)
	s.handle("POST /v1/sweep", "sweep", s.handleSweep)
	s.handle("POST /v1/invert", "invert", s.handleInvert)
	s.handle("POST /v1/scenario", "scenario", s.handleScenario)
	s.handle("POST /v1/scenario/stream", "scenario_stream", s.handleScenarioStream)
	// Telemetry read path (answers 503 until a store is configured).
	s.handle("GET /v1/query", "query", s.handleQuery)
	s.handle("GET /v1/query/stream", "query_stream", s.handleQueryStream)
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
	st.ScenarioTapes = s.tapes.Stats()
	if s.retrier != nil {
		st.Degrade.PersistRetries, st.Degrade.PersistRecovered, st.Degrade.PersistPending = s.retrier.stats()
	}
	if s.cfg.Store != nil {
		ts := s.cfg.Store.Stats()
		st.Telemetry = &ts
	}
	return st
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

// model resolves a spec through the compiled-model cache, keyed by its
// memoized fingerprint; only a miss resolves the spec's full config.
func (s *Server) model(spec ModelSpec) (*CachedModel, string, error) {
	key, err := spec.Fingerprint()
	if err != nil {
		return nil, "", err
	}
	cm, hit, err := s.cache.Get(key, func() (*hotspot.Model, error) {
		cfg, err := spec.config()
		if err != nil {
			return nil, err
		}
		return hotspot.New(cfg)
	})
	state := "miss"
	if hit {
		state = "hit"
	}
	return cm, state, err
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

// handleSteady solves the steady state of a power map.
func (s *Server) handleSteady(_ http.ResponseWriter, r *http.Request) (int, runFunc, error) {
	var req SteadyRequest
	if err := decodeJSON(r, &req); err != nil {
		return 0, nil, err
	}
	if len(req.Power) == 0 {
		return 0, nil, errors.New("empty power map")
	}
	return req.TimeoutMS, func(ctx context.Context, clock solveClock) (any, error) {
		cm, cacheState, err := s.model(req.Model)
		if err != nil {
			return nil, fmt.Errorf("model: %w", err)
		}
		vec, err := cm.Model.PowerVector(req.Power)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, withStatus(http.StatusGatewayTimeout, err)
		}
		se := cm.Session()
		res := se.SteadyState(vec)
		cm.Release(se)
		solveMS := clock.ms()
		hotName, hotC := res.Hottest()
		return &steadyReply{
			ix:       cm.blocks,
			blockC:   res.BlocksC(),
			hottest:  cm.Model.Floorplan().Index(hotName),
			hottestC: hotC,
			spreadC:  res.Spread(),
			cache:    cacheState,
			solveMS:  solveMS,
		}, nil
	}, nil
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
// temperatures. A persist run name is checked before admission, so a bad
// one never runs the replay.
func (s *Server) handleTransient(w http.ResponseWriter, r *http.Request) (int, runFunc, error) {
	var (
		req    TransientRequest
		rr     trace.RowReader
		inline *trace.PowerTrace
	)
	if isJSONRequest(r) {
		if err := decodeJSON(r, &req); err != nil {
			return 0, nil, err
		}
		if req.Trace == nil {
			return 0, nil, errors.New("missing trace")
		}
		tr, err := req.Trace.powerTrace()
		if err != nil {
			return 0, nil, err
		}
		inline, rr = tr, tr.Reader()
	} else {
		var interval float64
		var err error
		if req, interval, err = transientQueryParams(r); err != nil {
			return 0, nil, err
		}
		// The request deadline must also bound blocking reads of the body:
		// without a read deadline a stalled client would hold its solve
		// slot forever (the between-rows ctx check never runs while Next is
		// blocked inside a Read).
		_ = http.NewResponseController(w).SetReadDeadline(time.Now().Add(s.timeout(req.TimeoutMS)))
		if rr, err = trace.NewDecoder(r.Body, trace.DecoderOptions{DefaultInterval: interval}); err != nil {
			return 0, nil, err
		}
	}
	tw, err := s.persistWriter(req.Persist)
	if err != nil {
		return 0, nil, err
	}
	return req.TimeoutMS, func(ctx context.Context, clock solveClock) (any, error) {
		cm, cacheState, err := s.model(req.Model)
		if err != nil {
			return nil, fmt.Errorf("model: %w", err)
		}
		if err := cm.Model.CheckTraceNames(rr.Names()); err != nil {
			return nil, err
		}
		se := cm.Session()
		defer cm.Release(se)
		temps := cm.Model.AmbientState()
		if req.WarmStart { // only an inline trace can ask: a stream's average is unknown until EOF
			if temps, err = warmStart(se, inline); err != nil {
				return nil, err
			}
		}
		pts, err := se.ReplayRows(temps, &ctxRowReader{ctx: ctx, rr: rr})
		if err != nil {
			return nil, deadlineErr(ctx, err)
		}
		var persisted int64
		pending := false
		if tw != nil {
			// The full sampled series persists (MaxPoints only strides the
			// JSON reply).
			err := hotspot.EmitTracePoints(tw, "", cm.Model.Floorplan().Names(), pts)
			switch {
			case errors.Is(err, tstore.ErrStagedFull):
				// The staging cap only binds while flushes are failing: rows
				// were dropped, so the honest answer is "retry later", and the
				// retrier works on draining the backlog meanwhile.
				s.kickRetrier()
				return nil, withStatus(http.StatusServiceUnavailable, fmt.Errorf("persist %q: %w", req.Persist, err))
			case errors.Is(err, tstore.ErrOutOfOrder):
				// The run name already holds newer rows — client data error.
				return nil, fmt.Errorf("persist %q: %w", req.Persist, err)
			}
			persisted, pending = s.flushPersist(tw, err)
		}
		resp := transientResponse(cm, pts, req.MaxPoints, cacheState, clock.ms())
		if tw != nil {
			resp.persist, resp.persistedRows, resp.persistPending = req.Persist, persisted, pending
		}
		return resp, nil
	}, nil
}

// transientQueryParams parses the streamed-transient parameters; interval
// is the trace's default row interval (0 when unset).
func transientQueryParams(r *http.Request) (req TransientRequest, interval float64, err error) {
	q := r.URL.Query()
	if req.Model, err = modelFromQuery(q); err != nil {
		return req, 0, err
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

// warmStart is the steady state of the trace's average power: the paper's
// warm operating point, where a warm-started replay begins instead of
// ambient.
func warmStart(se *hotspot.Session, tr *trace.PowerTrace) ([]float64, error) {
	avg := tr.Average()
	pm := make(map[string]float64, len(tr.Names))
	for i, n := range tr.Names {
		pm[n] = avg[i]
	}
	vec, err := se.Model().PowerVector(pm)
	if err != nil {
		return nil, err
	}
	return se.SteadyState(vec).Temps, nil
}

// finalAndPeak returns a replay's last block temperatures and each block's
// peak over the series.
func finalAndPeak(pts []hotspot.TracePoint) (final, peak []float64) {
	peak = append([]float64(nil), pts[0].BlockC...)
	for _, p := range pts[1:] {
		for i, v := range p.BlockC {
			if v > peak[i] {
				peak[i] = v
			}
		}
	}
	return pts[len(pts)-1].BlockC, peak
}

// transientResponse assembles the reply: subsampled series plus final/peak
// maps.
func transientResponse(cm *CachedModel, pts []hotspot.TracePoint, maxPoints int, cacheState string, solveMS float64) *transientReply {
	final, peak := finalAndPeak(pts)
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
	return &transientReply{
		ix:      cm.blocks,
		points:  keep,
		final:   final,
		peak:    peak,
		steps:   len(pts) - 1,
		cache:   cacheState,
		solveMS: solveMS,
	}
}

// handleSweep runs batched scenarios: steady power maps solve across the
// request's worker budget, trace scenarios fan out through
// hotspot.ReplayFinalPeak (the same lockstep core the experiment sweeps
// use).
func (s *Server) handleSweep(_ http.ResponseWriter, r *http.Request) (int, runFunc, error) {
	var req SweepRequest
	if err := decodeJSON(r, &req); err != nil {
		return 0, nil, err
	}
	if len(req.Scenarios) == 0 {
		return 0, nil, errors.New("no scenarios")
	}
	const maxScenarios = 256
	if len(req.Scenarios) > maxScenarios {
		return 0, nil, fmt.Errorf("%d scenarios, limit %d", len(req.Scenarios), maxScenarios)
	}
	return req.TimeoutMS, func(ctx context.Context, clock solveClock) (any, error) {
		return &sweepReply{results: s.sweep(ctx, req), solveMS: clock.ms()}, nil
	}, nil
}

// sweep solves every scenario of a sweep, each failure reported in its own
// result.
func (s *Server) sweep(ctx context.Context, req SweepRequest) []sweepResult {
	results := make([]sweepResult, len(req.Scenarios))

	// Resolve every scenario's model first (cache + single-flight dedupes
	// repeats), then split steady and replay work.
	models := make([]*CachedModel, len(req.Scenarios))
	var replayJobs []hotspot.ReplayJob
	var replayIdx []int
	for i, sc := range req.Scenarios {
		cm, cacheState, err := s.model(sc.Model)
		if err != nil {
			results[i].err = err.Error()
			continue
		}
		models[i] = cm
		results[i].cache = cacheState
		switch {
		case sc.Trace != nil:
			tr, err := sc.Trace.powerTrace()
			if err != nil {
				results[i].err = err.Error()
				models[i] = nil
				continue
			}
			if err := cm.Model.CheckTraceNames(tr.Names); err != nil {
				results[i].err = err.Error()
				models[i] = nil
				continue
			}
			temps := cm.Model.AmbientState()
			if sc.WarmStart {
				se := cm.Session()
				temps, err = warmStart(se, tr)
				cm.Release(se)
				if err != nil {
					results[i].err = err.Error()
					models[i] = nil
					continue
				}
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
			results[i].err = "scenario needs a power map or a trace"
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
					results[i].err = err.Error()
					return
				}
				se := cm.Session()
				res := se.SteadyState(vec)
				cm.Release(se)
				results[i].ix, results[i].blockC = cm.blocks, res.BlocksC()
			}
		})
	}

	// Trace scenarios through the batched replay path, with per-job error
	// attribution. A sweep answers with final and peak only, so only those
	// are kept.
	if len(replayJobs) > 0 {
		final, peak, errs := hotspot.ReplayFinalPeak(replayJobs, req.Workers)
		for k, i := range replayIdx {
			if errs[k] != nil {
				results[i].err = errs[k].Error()
				continue
			}
			results[i].ix, results[i].blockC, results[i].peakC = models[i].blocks, final[k], peak[k]
		}
	}
	return results
}

// handleInvert recovers per-block power from observed temperatures through
// the model's influence matrix (the paper's §5.4 reverse engineering).
func (s *Server) handleInvert(_ http.ResponseWriter, r *http.Request) (int, runFunc, error) {
	var req InvertRequest
	if err := decodeJSON(r, &req); err != nil {
		return 0, nil, err
	}
	if len(req.ObservedC) == 0 {
		return 0, nil, errors.New("empty observed_c map")
	}
	return req.TimeoutMS, func(ctx context.Context, clock solveClock) (any, error) {
		cm, cacheState, err := s.model(req.Model)
		if err != nil {
			return nil, fmt.Errorf("model: %w", err)
		}
		fp := cm.Model.Floorplan()
		observed := make([]float64, fp.N())
		for name, v := range req.ObservedC {
			bi := fp.Index(name)
			if bi < 0 {
				return nil, fmt.Errorf("observed temperature for unknown block %q", name)
			}
			observed[bi] = v
		}
		if len(req.ObservedC) != fp.N() {
			return nil, fmt.Errorf("observed_c has %d blocks, floorplan has %d", len(req.ObservedC), fp.N())
		}
		lambda := req.Lambda
		if lambda == 0 {
			lambda = 1e-6
		}
		if err := ctx.Err(); err != nil {
			return nil, withStatus(http.StatusGatewayTimeout, err)
		}
		p, err := ircam.InvertPower(cm.Model, observed, lambda)
		if err != nil {
			return nil, withStatus(http.StatusInternalServerError, err)
		}
		solveMS := clock.ms()
		var total float64
		for _, v := range p {
			total += v
		}
		return &invertReply{
			ix:      cm.blocks,
			powerW:  p,
			totalW:  total,
			cache:   cacheState,
			solveMS: solveMS,
		}, nil
	}, nil
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
	hs := &http.Server{Addr: addr, Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout}
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
