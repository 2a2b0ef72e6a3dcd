package service

import (
	"encoding/json"
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

// queryStore runs the admission-controlled store query shared by the
// buffered and streaming endpoints. On error it has already written the
// response.
func (s *Server) queryStore(w http.ResponseWriter, r *http.Request) (tstore.Result, queryParams, bool) {
	if s.cfg.Store == nil {
		s.failRetryAfter(w, http.StatusServiceUnavailable, 0, fmt.Errorf("no telemetry store configured (start the server with one to enable /v1/query)"))
		return tstore.Result{}, queryParams{}, false
	}
	p, err := parseQueryParams(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return tstore.Result{}, p, false
	}
	ctx, cancel := s.deadline(r, p.timeoutMS)
	defer cancel()
	dec, ok := s.admit(w, r, ctx)
	if !ok {
		return tstore.Result{}, p, false
	}
	defer dec.Release()
	if ctx.Err() != nil {
		s.metrics.deadlineExceeded.Add(1)
		s.fail(w, http.StatusGatewayTimeout, ctx.Err())
		return tstore.Result{}, p, false
	}
	res, err := s.cfg.Store.Query(p.series, p.from, p.to, p.downsample)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, tstore.ErrUnknownSeries) {
			code = http.StatusNotFound
		}
		if errors.Is(err, tstore.ErrCorrupt) {
			code = http.StatusInternalServerError
		}
		s.fail(w, code, err)
		return res, p, false
	}
	return res, p, true
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
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.metrics.countRequest("query")
	res, p, ok := s.queryStore(w, r)
	if !ok {
		return
	}
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
	s.writeJSON(w, http.StatusOK, resp)
}

// handleQueryStream answers the same query as NDJSON: a
// trace.TelemetryHeader line, one line per row or bucket, then a
// trace.TelemetryTrailer whose presence marks a complete (untruncated)
// stream. The wire format is the one trace.ReadTelemetry decodes.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	s.metrics.countRequest("query_stream")
	res, p, ok := s.queryStore(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(v any) {
		_ = enc.Encode(v) // Encode appends the newline NDJSON needs
	}
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	emit(trace.TelemetryHeader{
		Series: res.Series, FromNs: res.From, ToNs: res.To, DownsampleNs: res.Downsample,
	})
	flush()
	n := int64(0)
	if res.Downsample > 0 {
		for _, b := range res.Buckets {
			if p.limit > 0 && n >= int64(p.limit) {
				break
			}
			emit(telemetryBucket(b))
			n++
		}
	} else {
		for _, row := range res.Rows {
			if p.limit > 0 && n >= int64(p.limit) {
				break
			}
			emit(trace.TelemetryRow{TNs: row.T, V: row.V})
			n++
		}
	}
	emit(trace.TelemetryTrailer{Done: true, Rows: n})
	flush()
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
		s.failRetryAfter(w, http.StatusServiceUnavailable, 0, fmt.Errorf("no telemetry store configured (start the server with one to enable /v1/query)"))
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
