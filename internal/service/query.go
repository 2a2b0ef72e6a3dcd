package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/trace"
	"repro/internal/tstore"
)

// Telemetry read path: GET /v1/query (buffered), /v1/query/stream (NDJSON)
// and /v1/query/series (listing) serve ranges out of the tstore the server
// was configured with. The endpoints share the solve-slot admission control
// with the compute endpoints — a query decoding many segments holds a slot
// like a solve does — and answer 503 when no store is attached.

// queryParams is the parsed parameter set shared by /v1/query and
// /v1/query/stream.
type queryParams struct {
	series     string
	from, to   int64
	downsample int64
	limit      int
	timeoutMS  int
}

// queryTimeSpan is the default half-open range when from/to are omitted:
// wide enough for any simulation timeline, small enough that to-from and
// bucket alignment cannot overflow.
const queryTimeSpan = int64(1) << 62

// parseQueryParams decodes the shared query-string parameters. Times arrive
// either as integer nanoseconds (from_ns, to_ns, downsample_ns) or float
// seconds (from_s, to_s, downsample_s), mirroring tstore's Nanos mapping;
// the _ns form wins when both appear.
func parseQueryParams(r *http.Request) (queryParams, error) {
	q := r.URL.Query()
	p := queryParams{series: q.Get("series"), from: -queryTimeSpan, to: queryTimeSpan}
	if p.series == "" {
		return p, fmt.Errorf("missing series parameter")
	}
	parseT := func(nsKey, sKey string, dst *int64) error {
		if v := q.Get(sKey); v != "" {
			sec, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("%s: %v", sKey, err)
			}
			*dst = tstore.Nanos(sec)
		}
		if v := q.Get(nsKey); v != "" {
			ns, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return fmt.Errorf("%s: %v", nsKey, err)
			}
			*dst = ns
		}
		return nil
	}
	if err := parseT("from_ns", "from_s", &p.from); err != nil {
		return p, err
	}
	if err := parseT("to_ns", "to_s", &p.to); err != nil {
		return p, err
	}
	if err := parseT("downsample_ns", "downsample_s", &p.downsample); err != nil {
		return p, err
	}
	var err error
	if v := q.Get("limit"); v != "" {
		if p.limit, err = strconv.Atoi(v); err != nil {
			return p, fmt.Errorf("limit: %v", err)
		}
		if p.limit < 0 {
			return p, fmt.Errorf("limit: must be >= 0")
		}
	}
	if v := q.Get("timeout_ms"); v != "" {
		if p.timeoutMS, err = strconv.Atoi(v); err != nil {
			return p, fmt.Errorf("timeout_ms: %v", err)
		}
	}
	return p, nil
}

// parseQuery is the first stage /v1/query and /v1/query/stream share. Its
// run queries the store once admitted and hands the result to answer, whose
// return value is the reply.
func (s *Server) parseQuery(r *http.Request, answer func(tstore.Result, queryParams) any) (int, runFunc, error) {
	if s.cfg.Store == nil {
		return 0, nil, errNoStore
	}
	p, err := parseQueryParams(r)
	if err != nil {
		return 0, nil, err
	}
	return p.timeoutMS, func(ctx context.Context, _ solveClock) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, withStatus(http.StatusGatewayTimeout, err)
		}
		res, err := s.cfg.Store.Query(p.series, p.from, p.to, p.downsample)
		switch {
		case errors.Is(err, tstore.ErrCorrupt):
			return nil, withStatus(http.StatusInternalServerError, err)
		case errors.Is(err, tstore.ErrUnknownSeries):
			return nil, withStatus(http.StatusNotFound, err)
		case err != nil:
			return nil, err
		}
		return answer(res, p), nil
	}, nil
}

// QueryResponse is the buffered /v1/query reply. Raw queries fill Rows;
// downsampled ones fill Buckets (with the rollup/raw split reported so
// clients can see which path served them).
type QueryResponse struct {
	Series        string                  `json:"series"`
	FromNs        int64                   `json:"from_ns"`
	ToNs          int64                   `json:"to_ns"`
	DownsampleNs  int64                   `json:"downsample_ns,omitempty"`
	Rows          []trace.TelemetryRow    `json:"rows,omitempty"`
	Buckets       []trace.TelemetryBucket `json:"buckets,omitempty"`
	RollupBuckets int                     `json:"rollup_buckets,omitempty"`
	RawBuckets    int                     `json:"raw_buckets,omitempty"`
	// Truncated reports that limit cut the result short.
	Truncated bool `json:"truncated,omitempty"`
}

func telemetryRows(rows []tstore.Row) []trace.TelemetryRow {
	out := make([]trace.TelemetryRow, len(rows))
	for i, r := range rows {
		out[i] = trace.TelemetryRow{TNs: r.T, V: r.V}
	}
	return out
}

func telemetryBucket(b tstore.Bucket) trace.TelemetryBucket {
	return trace.TelemetryBucket{
		StartNs: b.Start, Count: b.Count,
		Min: b.Min, Max: b.Max, Mean: b.Mean(), Sum: b.Sum,
	}
}

// handleQuery answers a time-range query in one buffered JSON object.
func (s *Server) handleQuery(_ http.ResponseWriter, r *http.Request) (int, runFunc, error) {
	return s.parseQuery(r, func(res tstore.Result, p queryParams) any {
		resp := QueryResponse{
			Series: res.Series, FromNs: res.From, ToNs: res.To, DownsampleNs: res.Downsample,
			RollupBuckets: res.RollupBuckets, RawBuckets: res.RawBuckets,
		}
		rows, buckets := res.Rows, res.Buckets
		if p.limit > 0 {
			if len(rows) > p.limit {
				rows, resp.Truncated = rows[:p.limit], true
			}
			if len(buckets) > p.limit {
				buckets, resp.Truncated = buckets[:p.limit], true
			}
		}
		if res.Downsample > 0 {
			resp.Buckets = make([]trace.TelemetryBucket, len(buckets))
			for i, b := range buckets {
				resp.Buckets[i] = telemetryBucket(b)
			}
		} else {
			resp.Rows = telemetryRows(rows)
		}
		return resp
	})
}

// handleQueryStream answers the same query as NDJSON: a
// trace.TelemetryHeader line, one line per row or bucket, then a
// trace.TelemetryTrailer whose presence marks a complete (untruncated)
// stream. The wire format is the one trace.ReadTelemetry decodes.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) (int, runFunc, error) {
	return s.parseQuery(r, func(res tstore.Result, p queryParams) any {
		emit := ndjson(w)
		emit(trace.TelemetryHeader{
			Series: res.Series, FromNs: res.From, ToNs: res.To, DownsampleNs: res.Downsample,
		}, true)
		n := int64(0)
		if res.Downsample > 0 {
			for _, b := range res.Buckets {
				if p.limit > 0 && n >= int64(p.limit) {
					break
				}
				emit(telemetryBucket(b), false)
				n++
			}
		} else {
			for _, row := range res.Rows {
				if p.limit > 0 && n >= int64(p.limit) {
					break
				}
				emit(trace.TelemetryRow{TNs: row.T, V: row.V}, false)
				n++
			}
		}
		emit(trace.TelemetryTrailer{Done: true, Rows: n}, true)
		return nil
	})
}

// SeriesListResponse is the /v1/query/series reply.
type SeriesListResponse struct {
	Series []tstore.SeriesInfo `json:"series"`
	Store  tstore.Stats        `json:"store"`
}

// handleQuerySeries lists the stored series (optionally filtered by a
// prefix parameter) plus the store's aggregate stats.
func (s *Server) handleQuerySeries(w http.ResponseWriter, r *http.Request) {
	s.metrics.countRequest("query_series")
	if s.cfg.Store == nil {
		s.fail(w, errNoStore)
		return
	}
	prefix := r.URL.Query().Get("prefix")
	all := s.cfg.Store.Series()
	resp := SeriesListResponse{Series: all[:0:0], Store: s.cfg.Store.Stats()}
	for _, si := range all {
		if prefix == "" || len(si.Name) >= len(prefix) && si.Name[:len(prefix)] == prefix {
			resp.Series = append(resp.Series, si)
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// persistWriter validates a persist run name against the configured store
// and returns a sink writing under it. An empty run name means "don't
// persist" (nil writer, no error); persisting without a store is a client
// error.
func (s *Server) persistWriter(run string) (*tstore.Writer, error) {
	if run == "" {
		return nil, nil
	}
	if s.cfg.Store == nil {
		return nil, fmt.Errorf("persist %q: no telemetry store configured", run)
	}
	if err := tstore.ValidRunName(run); err != nil {
		return nil, err
	}
	return tstore.NewWriter(s.cfg.Store, run), nil
}

// flushPersist makes a persisted run's rows durable before the reply claims
// them, and returns how many it flushed. A failed flush, or a staging error
// stageErr the caller did not answer itself, degrades persistence (DESIGN.md
// §12) instead of failing the solve: the rows stay staged in memory, the
// background retrier keeps flushing them with backoff, and the reply says
// persist_pending instead of claiming them durable.
func (s *Server) flushPersist(tw *tstore.Writer, stageErr error) (rows int64, pending bool) {
	if stageErr == nil {
		stageErr = tw.Flush()
	}
	if stageErr != nil {
		s.kickRetrier()
		s.metrics.persistDeferred.Add(1)
		return 0, true
	}
	return tw.Rows(), false
}
