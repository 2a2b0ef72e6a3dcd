// Package service exposes the thermal simulation stack as a long-lived
// HTTP/JSON server — the serving layer the paper's inherently many-scenario
// workflow (§5: one die re-run across traces, sensor placements, DTM
// policies and camera configurations) calls for; DESIGN.md §5 records the
// architecture. The expensive artifact — a compiled hotspot.Model
// (floorplan geometry → RC network → factorized/preconditioned operator) —
// is amortized across requests by a single-flight LRU cache keyed on the
// model configuration's canonical fingerprint; power traces stream through
// internal/trace decoders so transients start before the full trace has
// arrived and memory stays O(one row).
//
// Endpoints (all under the handler returned by Server.Handler; docs/api.md
// is the full request/response reference):
//
//	GET  /healthz             liveness
//	GET  /v1/stats            cache/queue/latency counters
//	POST /v1/steady           steady-state temperatures for a power map
//	POST /v1/transient        trace-driven transient (inline JSON or streamed body)
//	POST /v1/sweep            batched steady/transient scenarios
//	POST /v1/invert           IR-camera style power inversion from observed temps
//	POST /v1/scenario         closed-loop DTM policy-grid sweep (buffered)
//	POST /v1/scenario/stream  same grid, NDJSON rows as cells finish
//	GET  /v1/query            telemetry-store range query (buffered)
//	GET  /v1/query/stream     same query, NDJSON rows/buckets
//	GET  /v1/query/series     stored-series listing
//
// Transient and scenario requests accept a "persist" run name that writes
// their sampled series into the server's internal/tstore telemetry store
// (when one is configured), which the query endpoints then serve back.
package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/hotspot"
	"repro/internal/trace"
)

// ModelSpec selects a thermal model. Floorplan is one of the built-ins
// ("ev6", "athlon"), a synthetic uniform grid ("grid:<nx>x<ny>", 16×16 mm
// die), or empty when FLP carries an inline HotSpot .flp file. The
// remaining fields mirror core.PackageSpec.
type ModelSpec struct {
	Floorplan string  `json:"floorplan,omitempty"`
	FLP       string  `json:"flp,omitempty"`
	Package   string  `json:"package,omitempty"`
	Direction string  `json:"direction,omitempty"`
	Rconv     float64 `json:"rconv,omitempty"`
	Secondary bool    `json:"secondary,omitempty"`
	// AmbientC is the ambient temperature in °C (default 45).
	AmbientC float64 `json:"ambient_c,omitempty"`
}

// maxGridSide bounds synthetic grid floorplans (128×128 blocks ≈ 33k RC
// nodes under oil — already a stress-test size).
const maxGridSide = 128

// namedFloorplans memoizes floorplans resolved from name specs ("ev6",
// "grid:32x32", …): they are immutable once built, and rebuilding a large
// grid per request would dominate a warm-cache hit. Grid specs are client
// input, so the memo is size-capped: past the cap, unseen specs are rebuilt
// per request instead of stored (correct, just slower) — a client iterating
// grid sizes cannot pin unbounded memory.
var namedFloorplans = struct {
	sync.Mutex
	m map[string]*floorplan.Floorplan
}{m: make(map[string]*floorplan.Floorplan)}

const maxNamedFloorplans = 64

// resolveFloorplan builds (or recalls) the floorplan the spec names.
func (sp ModelSpec) resolveFloorplan() (*floorplan.Floorplan, error) {
	if sp.FLP != "" {
		fp, err := floorplan.Parse(strings.NewReader(sp.FLP))
		if err != nil {
			return nil, err
		}
		if err := fp.ValidateNoOverlap(); err != nil {
			return nil, err
		}
		return fp, nil
	}
	namedFloorplans.Lock()
	cached := namedFloorplans.m[sp.Floorplan]
	namedFloorplans.Unlock()
	if cached != nil {
		return cached, nil
	}
	var fp *floorplan.Floorplan
	switch {
	case sp.Floorplan == "" || sp.Floorplan == "ev6":
		fp = floorplan.EV6()
	case sp.Floorplan == "athlon":
		fp = floorplan.Athlon()
	case strings.HasPrefix(sp.Floorplan, "grid:"):
		dims := strings.Split(strings.TrimPrefix(sp.Floorplan, "grid:"), "x")
		if len(dims) != 2 {
			return nil, fmt.Errorf("grid floorplan %q: want grid:<nx>x<ny>", sp.Floorplan)
		}
		nx, errX := strconv.Atoi(dims[0])
		ny, errY := strconv.Atoi(dims[1])
		if errX != nil || errY != nil || nx < 1 || ny < 1 || nx > maxGridSide || ny > maxGridSide {
			return nil, fmt.Errorf("grid floorplan %q: sides must be 1..%d", sp.Floorplan, maxGridSide)
		}
		fp = floorplan.GridDie(16e-3, 16e-3, nx, ny)
	default:
		return nil, fmt.Errorf("unknown floorplan %q (have ev6, athlon, grid:<nx>x<ny>, or inline flp)", sp.Floorplan)
	}
	namedFloorplans.Lock()
	if len(namedFloorplans.m) < maxNamedFloorplans {
		namedFloorplans.m[sp.Floorplan] = fp
	}
	namedFloorplans.Unlock()
	return fp, nil
}

// config resolves the spec into a full hotspot configuration. The config's
// Fingerprint is the cache key.
func (sp ModelSpec) config() (hotspot.Config, error) {
	fp, err := sp.resolveFloorplan()
	if err != nil {
		return hotspot.Config{}, err
	}
	ambientC := sp.AmbientC
	if ambientC == 0 {
		ambientC = 45
	}
	return core.BuildConfig(fp, core.PackageSpec{
		Kind:      sp.Package,
		Rconv:     sp.Rconv,
		Direction: sp.Direction,
		Secondary: sp.Secondary,
		AmbientK:  ambientC + 273.15,
	})
}

// Fingerprint resolves the spec and returns its model-cache key — the same
// hotspot.Config.Fingerprint the compiled-model cache and the fleet router's
// consistent-hash ring use, so a router placing a request and the replica
// caching its model agree on the key byte for byte.
func (sp ModelSpec) Fingerprint() (string, error) {
	cfg, err := sp.config()
	if err != nil {
		return "", err
	}
	return cfg.Fingerprint(), nil
}

// modelFromQuery reads a streamed transient's model from its query
// parameters: floorplan, flp, package, direction, rconv, secondary and
// ambient_c.
func modelFromQuery(q url.Values) (ModelSpec, error) {
	spec := ModelSpec{
		Floorplan: q.Get("floorplan"),
		FLP:       q.Get("flp"),
		Package:   q.Get("package"),
		Direction: q.Get("direction"),
		Secondary: q.Get("secondary") == "true",
	}
	var err error
	if v := q.Get("rconv"); v != "" {
		if spec.Rconv, err = strconv.ParseFloat(v, 64); err != nil {
			return spec, fmt.Errorf("rconv: %v", err)
		}
	}
	if v := q.Get("ambient_c"); v != "" {
		if spec.AmbientC, err = strconv.ParseFloat(v, 64); err != nil {
			return spec, fmt.Errorf("ambient_c: %v", err)
		}
	}
	return spec, nil
}

// RequestModel reads where a request carries its model, without validating
// the rest of it: the "model" of a steady, invert or JSON transient body,
// the first scenario's for a sweep, or a streamed transient's query
// parameters. persist is the request's run name. ok is false for endpoints
// without a model and for a body or query that does not decode. The fleet
// router keys and hedges requests on it, so router and replica read request
// shapes through one definition. Power maps and trace rows are skipped, not
// decoded.
func RequestModel(r *http.Request, body []byte) (spec ModelSpec, persist string, ok bool) {
	switch r.URL.Path {
	case "/v1/steady", "/v1/invert", "/v1/sweep":
	case "/v1/transient":
		if !isJSONRequest(r) {
			q := r.URL.Query()
			spec, err := modelFromQuery(q)
			return spec, q.Get("persist"), err == nil
		}
	default:
		return spec, "", false
	}
	var shape struct {
		Model     ModelSpec `json:"model"`
		Persist   string    `json:"persist"`
		Scenarios []struct {
			Model ModelSpec `json:"model"`
		} `json:"scenarios"`
	}
	if err := json.Unmarshal(body, &shape); err != nil {
		return spec, "", false
	}
	if r.URL.Path == "/v1/sweep" && len(shape.Scenarios) > 0 {
		return shape.Scenarios[0].Model, shape.Persist, true
	}
	return shape.Model, shape.Persist, true
}

// TraceSpec is an inline power trace.
type TraceSpec struct {
	Names    []string    `json:"names"`
	Interval float64     `json:"interval"`
	Rows     [][]float64 `json:"rows"`
}

// powerTrace materializes the inline trace (validating names, interval and
// powers).
func (ts *TraceSpec) powerTrace() (*trace.PowerTrace, error) {
	tr, err := trace.New(ts.Names, ts.Interval)
	if err != nil {
		return nil, err
	}
	for _, row := range ts.Rows {
		if err := tr.Append(row); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// SteadyRequest asks for equilibrium temperatures under a per-block power
// map (W).
type SteadyRequest struct {
	Model     ModelSpec          `json:"model"`
	Power     map[string]float64 `json:"power"`
	TimeoutMS int                `json:"timeout_ms,omitempty"`
}

// SteadyResponse reports per-block Celsius temperatures.
type SteadyResponse struct {
	BlockC       map[string]float64 `json:"block_c"`
	HottestBlock string             `json:"hottest_block"`
	HottestC     float64            `json:"hottest_c"`
	SpreadC      float64            `json:"spread_c"`
	Cache        string             `json:"cache"` // "hit" or "miss"
	SolveMS      float64            `json:"solve_ms"`
}

// TransientRequest replays an inline power trace. Streamed bodies (non-JSON
// content types) carry the same parameters in the query string instead and
// the trace in the body; see Server.handleTransient.
type TransientRequest struct {
	Model ModelSpec  `json:"model"`
	Trace *TraceSpec `json:"trace"`
	// WarmStart starts from the steady state of the trace's average power
	// (the paper's warm operating point) instead of ambient.
	WarmStart bool `json:"warm_start,omitempty"`
	// MaxPoints caps the returned sample series (0 = all points); the
	// series is strided evenly, always keeping the final point.
	MaxPoints int `json:"max_points,omitempty"`
	// Persist, when set, writes the full (unstrided) sampled series into the
	// server's telemetry store under this run name: one series per block,
	// named "<persist>/<block>", queryable via GET /v1/query. Requires the
	// server to be configured with a store.
	Persist   string `json:"persist,omitempty"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
}

// PointJSON is one sampled instant.
type PointJSON struct {
	TimeS  float64   `json:"t"`
	BlockC []float64 `json:"block_c"`
}

// TransientResponse reports the sampled series plus summary maps.
type TransientResponse struct {
	Blocks  []string           `json:"blocks"`
	Points  []PointJSON        `json:"points"`
	FinalC  map[string]float64 `json:"final_c"`
	PeakC   map[string]float64 `json:"peak_c"`
	Steps   int                `json:"steps"`
	Cache   string             `json:"cache"`
	SolveMS float64            `json:"solve_ms"`
	// Persist echoes the request's run name when the series was written to
	// the telemetry store; PersistedRows counts the rows written.
	Persist       string `json:"persist,omitempty"`
	PersistedRows int64  `json:"persisted_rows,omitempty"`
	// PersistPending reports degraded persistence: the flush failed, the
	// rows are buffered in memory, and a background retrier is flushing
	// them with backoff. PersistedRows is zero in that case — the rows are
	// not yet durable.
	PersistPending bool `json:"persist_pending,omitempty"`
}

// SweepScenario is one entry of a sweep: a model plus either a steady power
// map or a trace to replay.
type SweepScenario struct {
	Model     ModelSpec          `json:"model"`
	Power     map[string]float64 `json:"power,omitempty"`
	Trace     *TraceSpec         `json:"trace,omitempty"`
	WarmStart bool               `json:"warm_start,omitempty"`
}

// SweepRequest batches scenarios across the worker pool.
type SweepRequest struct {
	Scenarios []SweepScenario `json:"scenarios"`
	// Workers bounds replay parallelism (0 = GOMAXPROCS).
	Workers   int `json:"workers,omitempty"`
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// SweepResult is one scenario's outcome: steady temperatures, or the final
// and peak temperatures of a replay.
type SweepResult struct {
	BlockC map[string]float64 `json:"block_c,omitempty"`
	PeakC  map[string]float64 `json:"peak_c,omitempty"`
	Cache  string             `json:"cache,omitempty"`
	Error  string             `json:"error,omitempty"`
}

// SweepResponse reports per-scenario results, indexed like the request.
type SweepResponse struct {
	Results []SweepResult `json:"results"`
	SolveMS float64       `json:"solve_ms"`
}

// InvertRequest reverse-engineers per-block power from observed block
// temperatures (°C) through the model's influence matrix.
type InvertRequest struct {
	Model     ModelSpec          `json:"model"`
	ObservedC map[string]float64 `json:"observed_c"`
	// Lambda is the Tikhonov regularization weight (default 1e-6).
	Lambda    float64 `json:"lambda,omitempty"`
	TimeoutMS int     `json:"timeout_ms,omitempty"`
}

// InvertResponse reports recovered per-block power in watts.
type InvertResponse struct {
	PowerW  map[string]float64 `json:"power_w"`
	TotalW  float64            `json:"total_w"`
	Cache   string             `json:"cache"`
	SolveMS float64            `json:"solve_ms"`
}

// errorResponse is the JSON error payload.
type errorResponse struct {
	Error string `json:"error"`
}
