package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/service"
)

// Handler returns the router's HTTP surface: the full replica API proxied by
// model affinity, plus the router's own /healthz, /readyz and /v1/stats.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	mux.HandleFunc("/", rt.handleProxy)
	return mux
}

// handleHealthz is pure proxy liveness: the router process is up.
func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports whether the fleet can take work: at least one replica
// in rotation.
func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if len(rt.AvailableReplicas()) == 0 {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no replicas available"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (rt *Router) failJSON(w http.ResponseWriter, code int, retryAfter bool, err error) {
	if retryAfter {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// --- route keys ---

// route derives a request's consistent-hash key, and whether it may be
// hedged, from one read of where it carries its model
// (service.RequestModel). The key is
//
//   - for solve endpoints (steady/transient/sweep/invert): the resolved
//     model's fingerprint — the same key the replica's compiled-model cache
//     uses, so the request lands where the model is (sweeps key on their
//     first scenario's model).
//   - for query endpoints: the series name (persisted runs stay readable
//     from a stable replica).
//   - for scenario endpoints, and any request whose model does not read: a
//     digest of the request (identical scenario specs reuse the same
//     replica's cached models). The replica still validates everything;
//     the router only needs a stable key.
//
// Only idempotent pure solves and reads may be raced against a second
// replica: steady, invert, queries, and transients without a persist run
// name. A persisting transient writes telemetry rows — hedging it could
// double-write, so it fails over serially instead.
func route(r *http.Request, body []byte) (key string, hedge bool) {
	path := r.URL.Path
	switch path {
	case "/v1/query", "/v1/query/stream":
		if s := r.URL.Query().Get("series"); s != "" {
			return "series:" + s, r.Method == http.MethodGet
		}
		return bodyDigest(r.Method, path, body), r.Method == http.MethodGet
	case "/v1/query/series":
		// One deterministic home so repeated listings agree while the
		// membership is stable (a fleet-wide listing union is future work;
		// DESIGN.md §13.6).
		return "series-listing", r.Method == http.MethodGet
	}
	spec, persist, ok := service.RequestModel(r, body)
	hedge = path == "/v1/steady" || path == "/v1/invert" || path == "/v1/transient" && ok && persist == ""
	if ok {
		if fp, err := spec.Fingerprint(); err == nil {
			return fp, hedge
		}
	}
	return bodyDigest(r.Method, path, body), hedge
}

func bodyDigest(method, path string, body []byte) string {
	h := hashKey(method + " " + path)
	bh := hashKey(string(body))
	return "req:" + strconv.FormatUint(h^bh*1099511628211, 16)
}

// --- the proxy path ---

// upstreamResult is one settled attempt chain: a definitive response (err ==
// nil, any status the replica chose to answer) or a routing failure.
type upstreamResult struct {
	resp  *http.Response
	err   error
	rep   *replica
	hedge bool
	// release, when set, cancels the context the response was fetched
	// under; call it only once the body has been copied.
	release context.CancelFunc
}

var errNoReplica = fmt.Errorf("fleet: no replica available")

// handleProxy buffers the body, derives the route key and drives the
// retry/failover/hedge schedule until a replica answers or the budget runs
// out.
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	rt.counters.proxied.Add(1)
	body, err := readBody(w, r)
	if err != nil {
		rt.counters.routeErrors.Add(1)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			rt.failJSON(w, http.StatusRequestEntityTooLarge, false,
				fmt.Errorf("fleet: body exceeds %d bytes (bodies buffer for retry/hedge)", service.MaxBodyBytes))
		} else {
			rt.failJSON(w, http.StatusBadRequest, false, fmt.Errorf("fleet: read body: %w", err))
		}
		return
	}
	key, hedge := route(r, body)
	res := rt.dispatch(r, body, key, hedge)
	if res.err != nil {
		if res.err == errNoReplica {
			rt.counters.noReplica.Add(1)
			rt.failJSON(w, http.StatusServiceUnavailable, true, errNoReplica)
			return
		}
		rt.counters.exhausted.Add(1)
		rt.failJSON(w, http.StatusBadGateway, true, fmt.Errorf("fleet: %w", res.err))
		return
	}
	if res.release != nil {
		defer res.release()
	}
	defer res.resp.Body.Close()
	copyResponse(w, res.resp)
}

// readBody buffers a request body so retries and hedges can replay it. A
// body over service.MaxBodyBytes is refused, before any read when its
// declared length already says so.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.ContentLength > service.MaxBodyBytes {
		return nil, &http.MaxBytesError{Limit: service.MaxBodyBytes}
	}
	return io.ReadAll(http.MaxBytesReader(w, r.Body, service.MaxBodyBytes))
}

// dispatch runs the primary attempt chain and, for hedgeable requests with
// deadline headroom, a single hedge against the next ring owner once the
// primary has run alone for HedgeDelay. The first settled chain with a
// definitive response wins; the loser is cancelled and drained. Each chain
// runs under its own context, so cancelling the loser never cuts off the
// winner's body: the winner's context travels out in the result's release.
func (rt *Router) dispatch(r *http.Request, body []byte, key string, hedge bool) upstreamResult {
	ctx := r.Context()
	primary, _ := rt.ring.OwnerBounded(key, boundedLoadFactor, rt.available, rt.loadOf)
	if primary == "" {
		return upstreamResult{err: errNoReplica}
	}
	order := rt.failoverOrder(key, primary)

	if rt.cfg.HedgeDelay <= 0 || len(order) < 2 || !hedge {
		return rt.tryOwners(ctx, r, body, order, false)
	}

	// Chain contexts, indexed primary 0, hedge 1. Every chain but the
	// winner is cancelled on return.
	var ctxs [2]context.Context
	var cancels [2]context.CancelFunc
	for i := range ctxs {
		ctxs[i], cancels[i] = context.WithCancel(ctx)
	}
	winner := -1
	defer func() {
		for i, c := range cancels {
			if i != winner {
				c()
			}
		}
	}()
	resc := make(chan upstreamResult, 2)
	running := 1
	go func() { resc <- rt.tryOwners(ctxs[0], r, body, order, false) }()

	hedgeTimer := time.NewTimer(rt.cfg.HedgeDelay)
	defer hedgeTimer.Stop()
	var lastFail upstreamResult
	for {
		select {
		case res := <-resc:
			running--
			if res.err == nil {
				winner = 0
				if res.hedge {
					winner = 1
					rt.counters.hedgesWon.Add(1)
				}
				res.release = cancels[winner]
				if running > 0 {
					go drainResult(resc)
				}
				return res
			}
			if running == 0 {
				// Both chains (or the only one) failed: surface the primary's
				// error when it is the more descriptive of the two.
				if lastFail.err != nil && !lastFail.hedge {
					return lastFail
				}
				return res
			}
			lastFail = res
		case <-hedgeTimer.C:
			// Fires at most once (never reset). Skip when the deadline no
			// longer leaves the hedge room to win.
			if !deadlineRoom(ctx, rt.cfg.HedgeDelay) {
				continue
			}
			running++
			go func() { resc <- rt.hedgeAttempt(ctxs[1], r, body, order) }()
		}
	}
}

// drainResult disposes of a raced chain's late result.
func drainResult(resc chan upstreamResult) {
	res := <-resc
	if res.resp != nil {
		_, _ = io.Copy(io.Discard, io.LimitReader(res.resp.Body, 1<<20))
		res.resp.Body.Close()
	}
}

// deadlineRoom reports whether the context has at least margin left (or no
// deadline at all): hedging inside the last margin only doubles load without
// a chance to win.
func deadlineRoom(ctx context.Context, margin time.Duration) bool {
	if ctx.Err() != nil {
		return false
	}
	d, ok := ctx.Deadline()
	return !ok || time.Until(d) > margin
}

// failoverOrder is the key's full preference order rotated to start at the
// chosen primary.
func (rt *Router) failoverOrder(key, primary string) []string {
	owners := rt.ring.Owners(key, 0)
	for i, o := range owners {
		if o == primary {
			return append(owners[i:], owners[:i]...)
		}
	}
	return owners
}

func (rt *Router) loadOf(name string) int {
	return int(rt.replicas[name].inFlight.Load())
}

// tryOwners drives the serial retry/failover schedule: walk the preference
// order, calling each in-rotation replica; a 429 retries the same replica
// after its Retry-After (it is alive, and moving would abandon its warm
// model cache), transport errors and 502/503 fail over to the next owner.
// The total upstream-call budget is Retry.MaxAttempts; between full sweeps
// of the order it sleeps a jittered backoff so a fleet-wide brownout is not
// hammered.
func (rt *Router) tryOwners(ctx context.Context, r *http.Request, body []byte, order []string, hedge bool) upstreamResult {
	policy := rt.cfg.Retry
	calls := 0
	var prev *replica
	lastCause := ""
	for round := 0; ; round++ {
		progressed := false
		for i := 0; i < len(order); i++ {
			if err := ctx.Err(); err != nil {
				return exhaust(lastCause, err, hedge)
			}
			if calls >= policy.MaxAttempts {
				return exhaust(lastCause, nil, hedge)
			}
			rep := rt.replicas[order[i]]
			// Allow performs open → half-open and meters half-open probes; an
			// admitted call always reaches rt.call, whose breaker feedback
			// releases the probe slot.
			if !rep.breaker.Allow() {
				continue
			}
			calls++
			rt.accountCall(prev, rep, hedge)
			res := rt.call(ctx, rep, r, body, hedge)
			prev = rep
			progressed = true
			switch classify(res) {
			case outcomeDone:
				return res
			case outcomeRetrySame:
				lastCause = causeOf(res)
				sleep := policy.backoff(calls, rt.retry.rand)
				if ra, ok := RetryAfter(res.resp); ok {
					if ra > policy.MaxRetryAfter {
						ra = policy.MaxRetryAfter
					}
					if ra > sleep {
						sleep = ra
					}
				}
				dropResponse(res.resp)
				if err := rt.retry.doSleep(ctx, sleep); err != nil {
					return exhaust(lastCause, err, hedge)
				}
				i-- // same replica again
			case outcomeFailover:
				lastCause = causeOf(res)
				dropResponse(res.resp)
			}
		}
		if !progressed {
			// Every replica refused locally (breakers open): nothing to call.
			if calls == 0 {
				return upstreamResult{err: errNoReplica, hedge: hedge}
			}
			return exhaust(lastCause, nil, hedge)
		}
		if calls >= policy.MaxAttempts {
			return exhaust(lastCause, nil, hedge)
		}
		if err := rt.retry.doSleep(ctx, policy.backoff(round+1, rt.retry.rand)); err != nil {
			return exhaust(lastCause, err, hedge)
		}
	}
}

// hedgeAttempt is the single speculative call: the first in-rotation owner
// after the primary, no retries of its own.
func (rt *Router) hedgeAttempt(ctx context.Context, r *http.Request, body []byte, order []string) upstreamResult {
	for _, name := range order[1:] {
		rep := rt.replicas[name]
		if !rep.breaker.Allow() {
			continue
		}
		rt.counters.hedgesLaunched.Add(1)
		res := rt.call(ctx, rep, r, body, true)
		if classify(res) == outcomeDone {
			return res
		}
		cause := causeOf(res)
		dropResponse(res.resp)
		return upstreamResult{err: fmt.Errorf("hedge: %s", cause), hedge: true}
	}
	return upstreamResult{err: errNoReplica, hedge: true}
}

func exhaust(lastCause string, ctxErr error, hedge bool) upstreamResult {
	if lastCause == "" {
		lastCause = "no attempt made"
	}
	if ctxErr != nil {
		return upstreamResult{err: fmt.Errorf("%v (last: %s)", ctxErr, lastCause), hedge: hedge}
	}
	return upstreamResult{err: fmt.Errorf("retry budget exhausted (last: %s)", lastCause), hedge: hedge}
}

func dropResponse(resp *http.Response) {
	if resp != nil {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}
}

func causeOf(res upstreamResult) string {
	if res.err != nil {
		return res.err.Error()
	}
	if res.resp != nil {
		return "status " + strconv.Itoa(res.resp.StatusCode) + " from " + res.rep.name
	}
	return "unknown"
}

// accountCall classifies one upstream call into the reconciling counters
// (see fleetCounters).
func (rt *Router) accountCall(prev, next *replica, hedge bool) {
	switch {
	case hedge:
		// hedgesLaunched counts in hedgeAttempt, per actual call.
	case prev == nil:
		rt.counters.routed.Add(1)
	case prev == next:
		rt.counters.retries.Add(1)
	default:
		rt.counters.failovers.Add(1)
	}
}

type outcome int

const (
	outcomeDone outcome = iota
	outcomeRetrySame
	outcomeFailover
)

// classify maps a call result onto the schedule's moves. 429 means the
// replica is alive but shedding (admission): retry it. Transport errors and
// 502/503 mean it cannot take this work: fail over. Everything else —
// including 4xx and 504 — is a definitive answer to hand the client.
func classify(res upstreamResult) outcome {
	if res.err != nil {
		return outcomeFailover
	}
	switch res.resp.StatusCode {
	case http.StatusTooManyRequests:
		return outcomeRetrySame
	case http.StatusBadGateway, http.StatusServiceUnavailable:
		return outcomeFailover
	}
	return outcomeDone
}

// call issues one upstream request and feeds the replica's breaker: a
// transport error or 502/503 is a breaker failure (the replica cannot serve
// work), any other response proves liveness and serviceability. A call
// whose own context ended first — the cancelled loser of a won hedge, or a
// client that went away — says nothing about the replica: it gives the
// breaker no verdict and is not counted in failures (attempts still counts
// it).
func (rt *Router) call(ctx context.Context, rep *replica, r *http.Request, body []byte, hedge bool) upstreamResult {
	req, err := http.NewRequestWithContext(ctx, r.Method, rep.baseURL+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		rep.breaker.OnFailure()
		rt.noteAvailability(rep)
		return upstreamResult{err: err, rep: rep, hedge: hedge}
	}
	copyProxyHeaders(req.Header, r.Header)
	rep.inFlight.Add(1)
	rep.attempts.Add(1)
	resp, err := rt.client.Do(req)
	rep.inFlight.Add(-1)
	switch {
	case err != nil && ctx.Err() != nil:
		rep.breaker.OnAbandon()
	case err != nil || resp.StatusCode == http.StatusBadGateway || resp.StatusCode == http.StatusServiceUnavailable:
		rep.failures.Add(1)
		rep.breaker.OnFailure()
	default:
		rep.breaker.OnSuccess()
	}
	rt.noteAvailability(rep)
	return upstreamResult{resp: resp, err: err, rep: rep, hedge: hedge}
}

// hop-by-hop headers never forward (RFC 9110 §7.6.1).
var hopHeaders = []string{"Connection", "Keep-Alive", "Proxy-Authenticate",
	"Proxy-Authorization", "Te", "Trailer", "Transfer-Encoding", "Upgrade"}

func copyProxyHeaders(dst, src http.Header) {
	for k, vs := range src {
		dst[k] = append([]string(nil), vs...)
	}
	for _, h := range hopHeaders {
		dst.Del(h)
	}
}

func copyResponse(w http.ResponseWriter, resp *http.Response) {
	h := w.Header()
	for k, vs := range resp.Header {
		skip := false
		for _, hh := range hopHeaders {
			if http.CanonicalHeaderKey(hh) == k {
				skip = true
				break
			}
		}
		if !skip {
			h[k] = vs
		}
	}
	w.WriteHeader(resp.StatusCode)
	// Flush per chunk so NDJSON streams (scenario/query) keep flowing
	// through the proxy.
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}
