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
)

// MaxBodyBytes caps a JSON request body on a replica, and every body on the
// fleet router, which buffers bodies to replay them across retries and
// hedges. A streamed trace body is not capped on a replica: it decodes one
// row at a time.
const MaxBodyBytes = 64 << 20

// readHeaderTimeout bounds how long Serve waits for a request's headers.
const readHeaderTimeout = 10 * time.Second

// maxTenantName bounds the X-Tenant header: the admission controller keeps
// per-tenant state forever, so unbounded client-chosen names would be an
// unbounded-memory vector.
const maxTenantName = 64

// statusError is an error answered with a status other than 400, the status
// of every unmarked error. retry is the Retry-After hint of a 429 or 503.
type statusError struct {
	code  int
	retry time.Duration
	err   error
}

func (e *statusError) Error() string { return e.err.Error() }

// withStatus marks err to be answered with code.
func withStatus(code int, err error) error { return &statusError{code: code, err: err} }

// deadlineErr marks err for a 504 when ctx's deadline has passed: the
// deadline, not the request, caused it.
func deadlineErr(ctx context.Context, err error) error {
	if err != nil && ctx.Err() != nil {
		return withStatus(http.StatusGatewayTimeout, err)
	}
	return err
}

var (
	errTooLarge = withStatus(http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", MaxBodyBytes))
	errNoStore  = withStatus(http.StatusServiceUnavailable,
		errors.New("no telemetry store configured (start the server with one to enable /v1/query)"))
)

// parseFunc is an admitted endpoint's first stage: it decodes and validates
// the request and returns its timeout_ms (0: the server default) with the
// work to run once admitted. An error answers before the request can take a
// solve slot.
type parseFunc func(w http.ResponseWriter, r *http.Request) (timeoutMS int, run runFunc, err error)

// runFunc is an admitted request's work, under its deadline. It returns the
// value to encode as the 200 reply, nil when it wrote an NDJSON stream
// itself, or an error for fail.
type runFunc func(ctx context.Context, clock solveClock) (any, error)

// solveClock times a request's solve from its admission.
type solveClock struct {
	start time.Time
	lat   *latencyRing
}

// ms reads the clock in milliseconds and records the reading in the
// /v1/stats solve-latency window, so a run reads it once, when its solve
// ends.
func (c solveClock) ms() float64 {
	ms := float64(time.Since(c.start)) / float64(time.Millisecond)
	c.lat.add(ms)
	return ms
}

// handle registers an admitted endpoint. Every request to one passes the
// same pipeline: count it, cap a JSON body, parse, derive the deadline,
// admit, start the solve clock, run, then encode the reply or fail with the
// error's status.
func (s *Server) handle(pattern, name string, parse parseFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		s.metrics.countRequest(name)
		if isJSONRequest(r) {
			if r.ContentLength > MaxBodyBytes {
				s.fail(w, errTooLarge)
				return
			}
			r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
		}
		timeoutMS, run, err := parse(w, r)
		if err != nil {
			s.fail(w, err)
			return
		}
		ctx, cancel := s.deadline(r, timeoutMS)
		defer cancel()
		dec, err := s.admit(ctx, r.Header.Get("X-Tenant"))
		if err != nil {
			s.fail(w, err)
			return
		}
		defer dec.Release()
		v, err := run(ctx, solveClock{start: time.Now(), lat: s.metrics.solveLatency})
		switch {
		case err != nil:
			s.fail(w, err)
		case v != nil:
			s.writeJSON(w, http.StatusOK, v)
		}
	})
}

// timeout is a request's time budget: its timeout_ms, or the server default
// when that is 0.
func (s *Server) timeout(timeoutMS int) time.Duration {
	if timeoutMS > 0 {
		return time.Duration(timeoutMS) * time.Millisecond
	}
	return s.cfg.DefaultTimeout
}

// deadline derives the request context with the request's time budget.
func (s *Server) deadline(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.timeout(timeoutMS))
}

// admit gates a request through the admission controller under its tenant
// ("default" when the X-Tenant header is absent). The caller must Release a
// returned decision. Rejections carry their status: 429 for a rate or queue
// shed, 503 while draining, 504 for a deadline hit while queued.
func (s *Server) admit(ctx context.Context, tenant string) (*admission.Decision, error) {
	if len(tenant) > maxTenantName {
		return nil, fmt.Errorf("X-Tenant longer than %d bytes", maxTenantName)
	}
	dec, err := s.admission.Admit(ctx, tenant)
	if err == nil {
		return dec, nil
	}
	var shed *admission.ShedError
	if !errors.As(err, &shed) { // context deadline or cancellation while queued
		return nil, withStatus(http.StatusGatewayTimeout, fmt.Errorf("deadline exceeded while queued: %v", err))
	}
	switch shed.Reason {
	case admission.ReasonDraining:
		return nil, &statusError{code: http.StatusServiceUnavailable, retry: shed.RetryAfter,
			err: errors.New("server draining for shutdown")}
	case admission.ReasonRate:
		s.metrics.rejectedRateLimited.Add(1)
	default: // global or per-tenant queue bound
		s.metrics.rejectedQueueFull.Add(1)
	}
	return nil, &statusError{code: http.StatusTooManyRequests, retry: shed.RetryAfter, err: err}
}

// fail answers err with its status: 400 unless withStatus marked another. It
// does the accounting every error answer shares: a 400 counts in
// bad_requests, a 500 in solve_errors and a 504 in deadline_exceeded, and
// every 429 and 503 carries a Retry-After header, so shed clients always
// learn when a retry could succeed (docs/api.md, Conventions).
func (s *Server) fail(w http.ResponseWriter, err error) {
	code, retry := http.StatusBadRequest, time.Duration(0)
	var se *statusError
	if errors.As(err, &se) {
		code, retry = se.code, se.retry
	}
	switch code {
	case http.StatusBadRequest:
		s.metrics.badRequests.Add(1)
	case http.StatusInternalServerError:
		s.metrics.solveErrors.Add(1)
	case http.StatusGatewayTimeout:
		s.metrics.deadlineExceeded.Add(1)
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retry)))
	}
	s.writeJSON(w, code, errorResponse{Error: err.Error()})
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
		s.fail(w, withStatus(http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err)))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes()) // the client is gone when this fails
}

// ndjson commits a 200 NDJSON stream and returns its writer: emit writes v
// as one line and, with flush, pushes every buffered line to the client.
func ndjson(w http.ResponseWriter) (emit func(v any, flush bool)) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	fl, _ := w.(http.Flusher)
	return func(v any, flush bool) {
		_ = enc.Encode(v) // Encode appends the newline NDJSON needs; it fails only once the client is gone
		if flush && fl != nil {
			fl.Flush()
		}
	}
}

// decodeJSON strictly decodes a JSON request body: unknown fields are
// errors, and a body past MaxBodyBytes answers 413.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return errTooLarge
	case err != nil:
		return fmt.Errorf("decode request: %w", err)
	}
	return nil
}

// isJSONRequest reports whether a request body is a JSON document: a JSON
// Content-Type, or none at all.
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
