package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Telemetry NDJSON stream schema, shared by the thermsvc /v1/query/stream
// endpoint and the thermsim query subcommand so both speak one wire format:
// a header line, then one line per raw row or downsampled bucket, then a
// trailer line confirming completion. Timestamps are integer nanoseconds on
// the tstore timeline (tstore.Nanos); producers that hand out float seconds
// would silently lose sub-microsecond resolution on long runs.

// TelemetryHeader is the first line of a telemetry stream.
type TelemetryHeader struct {
	Series       string `json:"series"`
	FromNs       int64  `json:"from_ns"`
	ToNs         int64  `json:"to_ns"`
	DownsampleNs int64  `json:"downsample_ns,omitempty"`
}

// TelemetryRow is one raw sample line.
type TelemetryRow struct {
	TNs int64   `json:"t_ns"`
	V   float64 `json:"v"`
}

// TelemetryBucket is one downsampled aggregate line.
type TelemetryBucket struct {
	StartNs int64   `json:"start_ns"`
	Count   int64   `json:"count"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Mean    float64 `json:"mean"`
	Sum     float64 `json:"sum"`
}

// TelemetryTrailer is the final line; its presence distinguishes a complete
// stream from one cut off by a deadline or disconnect.
type TelemetryTrailer struct {
	Done bool  `json:"done"`
	Rows int64 `json:"rows"`
}

// TelemetryResult is a fully-read telemetry stream.
type TelemetryResult struct {
	Header  TelemetryHeader
	Rows    []TelemetryRow
	Buckets []TelemetryBucket
	Trailer TelemetryTrailer
}

// ReadTelemetry decodes a complete telemetry NDJSON stream: header line,
// row or bucket lines (by the header's DownsampleNs), trailer line. It
// fails on a missing trailer or a row-count mismatch, so consumers can't
// mistake a truncated stream for a short result.
func ReadTelemetry(r io.Reader) (TelemetryResult, error) {
	var res TelemetryResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return res, fmt.Errorf("trace: telemetry stream: %w", err)
		}
		return res, fmt.Errorf("trace: telemetry stream empty")
	}
	if err := json.Unmarshal(sc.Bytes(), &res.Header); err != nil {
		return res, fmt.Errorf("trace: telemetry header: %w", err)
	}
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Done *bool `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return res, fmt.Errorf("trace: telemetry line: %w", err)
		}
		if probe.Done != nil {
			if err := json.Unmarshal(line, &res.Trailer); err != nil {
				return res, fmt.Errorf("trace: telemetry trailer: %w", err)
			}
			n := int64(len(res.Rows)) + int64(len(res.Buckets))
			if !res.Trailer.Done || res.Trailer.Rows != n {
				return res, fmt.Errorf("trace: telemetry trailer claims %d rows, stream carried %d", res.Trailer.Rows, n)
			}
			return res, nil
		}
		if res.Header.DownsampleNs > 0 {
			var b TelemetryBucket
			if err := json.Unmarshal(line, &b); err != nil {
				return res, fmt.Errorf("trace: telemetry bucket: %w", err)
			}
			res.Buckets = append(res.Buckets, b)
		} else {
			var row TelemetryRow
			if err := json.Unmarshal(line, &row); err != nil {
				return res, fmt.Errorf("trace: telemetry row: %w", err)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	if err := sc.Err(); err != nil {
		return res, fmt.Errorf("trace: telemetry stream: %w", err)
	}
	return res, fmt.Errorf("trace: telemetry stream ended without trailer (%d lines read)", len(res.Rows)+len(res.Buckets))
}
