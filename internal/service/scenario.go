package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/hotspot"
	"repro/internal/scenario"
	"repro/internal/tstore"
)

// ScenarioRequest wraps a declarative closed-loop scenario spec
// (scenario.Spec, decoded with the same strictness as the rest of the spec
// layer) with the service-level knobs shared by the other endpoints.
type ScenarioRequest struct {
	// Spec is the scenario spec object; see internal/scenario and
	// docs/api.md for the schema.
	Spec json.RawMessage `json:"spec"`
	// Workers bounds grid parallelism (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Persist, when set, streams every grid cell's sensed telemetry into the
	// server's tstore under this run name (series
	// "<persist>/cell<i>/<block>"), queryable via GET /v1/query. Requires
	// the server to be configured with a store.
	Persist   string `json:"persist,omitempty"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
}

// ScenarioPolicyJSON names one grid cell's DTM policy.
type ScenarioPolicyJSON struct {
	TriggerC   float64 `json:"trigger_c"`
	EngageS    float64 `json:"engage_s"`
	SampleS    float64 `json:"sample_s"`
	PerfFactor float64 `json:"perf_factor"`
	Actuator   string  `json:"actuator"`
}

// ScenarioCellJSON is one finished grid cell. In the streaming endpoint it
// is one NDJSON row.
type ScenarioCellJSON struct {
	Cell    int                `json:"cell"`
	Package string             `json:"package"`
	Policy  ScenarioPolicyJSON `json:"policy"`
	Metrics *scenario.Metrics  `json:"metrics,omitempty"`
	Error   string             `json:"error,omitempty"`
}

// ScenarioHeaderJSON is the first NDJSON row of a streamed scenario: the
// grid shape, sent before any cell finishes.
type ScenarioHeaderJSON struct {
	Name      string  `json:"name,omitempty"`
	Cells     int     `json:"cells"`
	Steps     int     `json:"steps"`
	IntervalS float64 `json:"interval_s"`
	Cache     string  `json:"cache"`
}

// ScenarioResponse is the buffered /v1/scenario reply.
type ScenarioResponse struct {
	Name      string             `json:"name,omitempty"`
	Cells     []ScenarioCellJSON `json:"cells"`
	Steps     int                `json:"steps"`
	IntervalS float64            `json:"interval_s"`
	Cache     string             `json:"cache"` // "hit" iff every package model came from cache
	SolveMS   float64            `json:"solve_ms"`
	// Persist echoes the request's run name when telemetry was written to
	// the store; PersistedRows counts the rows written. PersistPending
	// reports degraded persistence: the flush failed, the rows are buffered
	// in memory, and a background retrier keeps flushing them with backoff.
	Persist        string `json:"persist,omitempty"`
	PersistedRows  int64  `json:"persisted_rows,omitempty"`
	PersistPending bool   `json:"persist_pending,omitempty"`
}

// ScenarioTrailerJSON is the last NDJSON row of a streamed scenario.
type ScenarioTrailerJSON struct {
	Done    bool    `json:"done"`
	SolveMS float64 `json:"solve_ms"`
	// Persist/PersistedRows/PersistPending mirror ScenarioResponse when the
	// request asked for telemetry persistence.
	Persist        string `json:"persist,omitempty"`
	PersistedRows  int64  `json:"persisted_rows,omitempty"`
	PersistPending bool   `json:"persist_pending,omitempty"`
}

func cellJSON(r scenario.CellResult) ScenarioCellJSON {
	out := ScenarioCellJSON{
		Cell:    r.Cell.Index,
		Package: r.Cell.Package,
		Policy: ScenarioPolicyJSON{
			TriggerC:   r.Cell.Policy.TriggerC,
			EngageS:    r.Cell.Policy.EngageDuration,
			SampleS:    r.Cell.Policy.SampleInterval,
			PerfFactor: r.Cell.Policy.PerfFactor,
			Actuator:   r.Cell.Policy.Actuator.String(),
		},
	}
	if r.Err != nil {
		out.Error = r.Err.Error()
	} else {
		m := r.Metrics
		out.Metrics = &m
	}
	return out
}

// compileScenario compiles a scenario request, resolving its package models
// through the single-flight compiled-model cache (the same fingerprint
// keying every other endpoint uses) and its workload tapes through the
// server's tape cache, so a repeated live-CPU spec simulates no CPU before
// its grid runs. ctx bounds the compile itself (nominal prepass, model
// builds, initial steady solves) so a deadline cannot pin the serving slot;
// a compile the deadline cut short answers 504. The returned cache state is
// "hit" iff no package needed a compile.
func (s *Server) compileScenario(ctx context.Context, req ScenarioRequest) (*scenario.Compiled, string, error) {
	if len(req.Spec) == 0 {
		return nil, "", fmt.Errorf("missing spec")
	}
	spec, err := scenario.ParseSpec(bytes.NewReader(req.Spec))
	if err != nil {
		return nil, "", err
	}
	misses := 0
	compiled, err := scenario.Compile(spec, scenario.Options{
		Ctx:   ctx,
		Tapes: s.tapes,
		Models: func(cfg hotspot.Config) (*hotspot.Model, error) {
			cm, hit, err := s.cache.Get(cfg.Fingerprint(), func() (*hotspot.Model, error) {
				return hotspot.New(cfg)
			})
			if err != nil {
				return nil, err
			}
			if !hit {
				misses++
			}
			return cm.Model, nil
		},
	})
	state := "hit"
	if misses > 0 {
		state = "miss"
	}
	return compiled, state, deadlineErr(ctx, err)
}

// parseScenario decodes a scenario request and checks its persist run name,
// the first stage both scenario endpoints share.
func (s *Server) parseScenario(r *http.Request) (ScenarioRequest, *tstore.Writer, error) {
	var req ScenarioRequest
	if err := decodeJSON(r, &req); err != nil {
		return req, nil, err
	}
	tw, err := s.persistWriter(req.Persist)
	return req, tw, err
}

// handleScenario runs a closed-loop DTM scenario grid and replies with every
// cell in one buffered JSON object (cells in deterministic grid order).
func (s *Server) handleScenario(_ http.ResponseWriter, r *http.Request) (int, runFunc, error) {
	req, tw, err := s.parseScenario(r)
	if err != nil {
		return 0, nil, err
	}
	return req.TimeoutMS, func(ctx context.Context, clock solveClock) (any, error) {
		compiled, cacheState, err := s.compileScenario(ctx, req)
		if err != nil {
			return nil, err
		}
		var results []scenario.CellResult
		if tw != nil {
			results = compiled.RunGridTelemetry(ctx, req.Workers, nil, tw)
		} else {
			results = compiled.RunGrid(ctx, req.Workers, nil)
		}
		solveMS := clock.ms()
		if ctx.Err() != nil {
			return nil, withStatus(http.StatusGatewayTimeout, fmt.Errorf("deadline exceeded mid-grid: %w", ctx.Err()))
		}
		resp := ScenarioResponse{
			Name:      compiled.Name(),
			Steps:     compiled.Steps(),
			IntervalS: compiled.Interval(),
			Cache:     cacheState,
			SolveMS:   solveMS,
		}
		if tw != nil {
			resp.Persist = req.Persist
			resp.PersistedRows, resp.PersistPending = s.flushPersist(tw, nil)
		}
		for _, cr := range results {
			resp.Cells = append(resp.Cells, cellJSON(cr))
		}
		return resp, nil
	}, nil
}

// handleScenarioStream runs the same grid but streams NDJSON: one header
// row, then one row per cell as it finishes (completion order — the "cell"
// index identifies the grid position), then a trailer. The connection
// returns 200 before any cell completes; a deadline hit mid-grid surfaces as
// error rows on the remaining cells rather than a 504 status.
func (s *Server) handleScenarioStream(w http.ResponseWriter, r *http.Request) (int, runFunc, error) {
	req, tw, err := s.parseScenario(r)
	if err != nil {
		return 0, nil, err
	}
	return req.TimeoutMS, func(ctx context.Context, clock solveClock) (any, error) {
		compiled, cacheState, err := s.compileScenario(ctx, req)
		if err != nil {
			return nil, err
		}
		emit := ndjson(w)
		emit(ScenarioHeaderJSON{
			Name:      compiled.Name(),
			Cells:     len(compiled.Cells()),
			Steps:     compiled.Steps(),
			IntervalS: compiled.Interval(),
			Cache:     cacheState,
		}, true)
		timedOut := false
		onCell := func(cr scenario.CellResult) {
			if cr.Err != nil && ctx.Err() != nil {
				timedOut = true
			}
			emit(cellJSON(cr), true)
		}
		if tw != nil {
			compiled.RunGridTelemetry(ctx, req.Workers, onCell, tw)
		} else {
			compiled.RunGrid(ctx, req.Workers, onCell)
		}
		trailer := ScenarioTrailerJSON{Done: true, SolveMS: clock.ms()}
		if timedOut {
			// The stream already committed to 200: the deadline shows in the
			// cells' error rows and in deadline_exceeded.
			s.metrics.deadlineExceeded.Add(1)
		}
		if tw != nil {
			trailer.Persist = req.Persist
			trailer.PersistedRows, trailer.PersistPending = s.flushPersist(tw, nil)
		}
		emit(trailer, true)
		return nil, nil
	}, nil
}
