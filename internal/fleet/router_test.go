package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// waitCond polls cond until it holds or the deadline passes.
func waitCond(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("condition %q not reached within %v", what, d)
}

func steadySpec(fp string) service.ModelSpec {
	return service.ModelSpec{Floorplan: fp, Package: "oil-silicon"}
}

func steadyBody(t *testing.T, spec service.ModelSpec) []byte {
	t.Helper()
	b, err := json.Marshal(service.SteadyRequest{Model: spec, Power: map[string]float64{"c0_0": 12}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func postJSON(t *testing.T, client *http.Client, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

// serviceFleet spins up n real service replicas behind a router. Probing is
// effectively off (1 h interval) so tests control health purely through
// request outcomes; mutate cfg via tweak.
func serviceFleet(t *testing.T, n int, tweak func(*Config)) (*Harness, *Router, *httptest.Server) {
	t.Helper()
	h, err := NewHarness(n, func(int) http.Handler {
		return service.New(service.Config{MaxConcurrent: 4, QueueDepth: 32}).Handler()
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	cfg := Config{
		Replicas:      h.Addrs(),
		ProbeInterval: time.Hour,
		Breaker:       BreakerConfig{FailureThreshold: 3, OpenTimeout: 500 * time.Millisecond},
		Retry:         RetryPolicy{MaxAttempts: 4, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond, MaxRetryAfter: 20 * time.Millisecond},
		HedgeDelay:    -1,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return h, rt, front
}

func replicaStat(t *testing.T, s Stats, addr string) ReplicaStats {
	t.Helper()
	for _, rs := range s.Replicas {
		if rs.Addr == addr {
			return rs
		}
	}
	t.Fatalf("no stats row for %s in %+v", addr, s.Replicas)
	return ReplicaStats{}
}

// TestRouterAffinity: identical solve requests land on one replica — the
// model fingerprint's ring owner — so every request after the first hits
// that replica's compiled-model cache.
func TestRouterAffinity(t *testing.T) {
	_, rt, front := serviceFleet(t, 3, nil)
	spec := steadySpec("grid:3x3")
	body := steadyBody(t, spec)
	fp, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	owner := rt.Ring().Owner(fp)

	for i := 0; i < 5; i++ {
		resp, data := postJSON(t, front.Client(), front.URL+"/v1/steady", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, resp.StatusCode, data)
		}
		var sr service.SteadyResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatal(err)
		}
		want := "hit"
		if i == 0 {
			want = "miss"
		}
		if sr.Cache != want {
			t.Fatalf("request %d cache = %q, want %q (affinity broken)", i, sr.Cache, want)
		}
	}
	s := rt.Stats()
	for _, rs := range s.Replicas {
		want := int64(0)
		if rs.Addr == owner {
			want = 5
		}
		if rs.Attempts != want {
			t.Errorf("replica %s attempts = %d, want %d", rs.Addr, rs.Attempts, want)
		}
	}
	if s.Proxied != 5 || s.Routed != 5 || s.Retries+s.Failovers+s.HedgesLaunched != 0 {
		t.Errorf("counters = %+v", s)
	}
}

// TestRouterFailover: with the ring owner dead, requests fail over to the
// key's next preferred replica; after FailureThreshold failures the breaker
// ejects the dead replica and later requests route straight to the
// successor.
func TestRouterFailover(t *testing.T) {
	h, rt, front := serviceFleet(t, 3, nil)
	spec := steadySpec("grid:4x4")
	body := steadyBody(t, spec)
	fp, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	owners := rt.Ring().Owners(fp, 0)
	victim, successor := owners[0], owners[1]
	for i, addr := range h.Addrs() {
		if addr == victim {
			h.Kill(i)
		}
	}

	for i := 0; i < 4; i++ {
		resp, data := postJSON(t, front.Client(), front.URL+"/v1/steady", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, resp.StatusCode, data)
		}
	}
	s := rt.Stats()
	vs := replicaStat(t, s, victim)
	// Requests 1..3 each burn one call on the dead owner (tripping the
	// breaker at 3); request 4 finds it out of rotation and skips it.
	if vs.Attempts != 3 || vs.Failures != 3 {
		t.Errorf("victim attempts/failures = %d/%d, want 3/3", vs.Attempts, vs.Failures)
	}
	if vs.Breaker != "open" || vs.Available {
		t.Errorf("victim breaker = %s available=%v, want open/unavailable", vs.Breaker, vs.Available)
	}
	ss := replicaStat(t, s, successor)
	if ss.Attempts != 4 {
		t.Errorf("successor attempts = %d, want 4 (3 failovers + 1 direct)", ss.Attempts)
	}
	if s.Failovers != 3 || s.Routed != 4 || s.RingMoves < 1 {
		t.Errorf("counters = %+v", s)
	}
	var sum int64
	for _, rs := range s.Replicas {
		sum += rs.Attempts
	}
	if sum != s.Routed+s.Retries+s.Failovers+s.HedgesLaunched {
		t.Errorf("attempt identity broken: sum=%d stats=%+v", sum, s)
	}
}

// customFleet builds a router over harness replicas serving custom handlers
// (each must answer GET /readyz itself if probing is on).
func customFleet(t *testing.T, n int, handler func(i int) http.Handler, tweak func(*Config)) (*Harness, *Router, *httptest.Server) {
	t.Helper()
	h, err := NewHarness(n, handler)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	cfg := Config{
		Replicas:      h.Addrs(),
		ProbeInterval: time.Hour,
		Breaker:       BreakerConfig{FailureThreshold: 1, OpenTimeout: 500 * time.Millisecond},
		Retry:         RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond, MaxRetryAfter: 20 * time.Millisecond},
		HedgeDelay:    -1,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return h, rt, front
}

// TestRouterRetryOn429: a shedding replica (429 + Retry-After) is retried in
// place — it is alive and holds the warm cache — not failed over.
func TestRouterRetryOn429(t *testing.T) {
	var calls atomic.Int64
	_, rt, front := customFleet(t, 1, func(int) http.Handler {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(200) })
		mux.HandleFunc("POST /v1/steady", func(w http.ResponseWriter, r *http.Request) {
			if calls.Add(1) == 1 {
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusTooManyRequests)
				return
			}
			io.WriteString(w, `{"cache":"miss"}`)
		})
		return mux
	}, nil)

	body := steadyBody(t, steadySpec("grid:3x3"))
	resp, data := postJSON(t, front.Client(), front.URL+"/v1/steady", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final status %d %s", resp.StatusCode, data)
	}
	s := rt.Stats()
	if s.Retries != 1 || s.Routed != 1 || s.Failovers != 0 {
		t.Errorf("counters = %+v, want 1 retry on the same replica", s)
	}
	if rs := s.Replicas[0]; rs.Attempts != 2 || rs.Failures != 0 {
		t.Errorf("replica attempts/failures = %d/%d, want 2/0 (429 is not a breaker failure)", rs.Attempts, rs.Failures)
	}
	if rt.Stats().Replicas[0].Breaker != "closed" {
		t.Error("429 must not trip the breaker")
	}
}

// TestRouterHedge: a slow primary is raced by one hedge to the next ring
// owner after HedgeDelay, the fast answer wins, the cancelled loser costs
// the primary no breaker failure, and a persisting transient is never
// hedged.
func TestRouterHedge(t *testing.T) {
	var slowIdx atomic.Int64
	slowIdx.Store(-1)
	handler := func(i int) http.Handler {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(200) })
		mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
			who := "fast"
			if int64(i) == slowIdx.Load() {
				time.Sleep(400 * time.Millisecond)
				who = "slow"
			}
			writeJSON(w, http.StatusOK, map[string]string{"who": who})
		})
		return mux
	}
	h, rt, front := customFleet(t, 2, handler, func(c *Config) {
		c.HedgeDelay = 30 * time.Millisecond
		c.Breaker = BreakerConfig{} // production defaults
	})

	spec := steadySpec("grid:3x3")
	body := steadyBody(t, spec)
	fp, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	primary := rt.Ring().Owner(fp)
	for i, addr := range h.Addrs() {
		if addr == primary {
			slowIdx.Store(int64(i))
		}
	}
	primaryStats := func() ReplicaStats {
		for _, r := range rt.Stats().Replicas {
			if r.Addr == primary {
				return r
			}
		}
		t.Fatalf("primary %s missing from stats", primary)
		return ReplicaStats{}
	}

	// Each won hedge cancels the slow primary's call. The cancelled loser
	// is no verdict on the primary: after three of them (the default trip
	// threshold) it must still be closed, in rotation and failure-free.
	const hedged = 3
	for i := 1; i <= hedged; i++ {
		resp, data := postJSON(t, front.Client(), front.URL+"/v1/steady", body)
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), "fast") {
			t.Fatalf("hedged request %d: %d %s, want the fast hedge to win", i, resp.StatusCode, data)
		}
		waitCond(t, time.Second, "hedge won and loser drained", func() bool {
			s := rt.Stats()
			return s.HedgesLaunched == int64(i) && s.HedgesWon == int64(i) && primaryStats().InFlight == 0
		})
	}
	if ps := primaryStats(); ps.Failures != 0 || ps.Breaker != "closed" || !ps.Available || ps.BreakerTrips != 0 || ps.Attempts != hedged {
		t.Fatalf("primary after %d lost hedges: %+v, want 0 failures, closed, available, 0 trips, %d attempts", hedged, ps, hedged)
	}
	s := rt.Stats()
	attempts := int64(0)
	for _, r := range s.Replicas {
		attempts += r.Attempts
	}
	if want := s.Routed + s.Retries + s.Failovers + s.HedgesLaunched; attempts != want {
		t.Fatalf("attempts %d != routed+retries+failovers+hedges %d: %+v", attempts, want, s)
	}

	// A transient carrying persist must fail over serially, never hedge.
	tb, _ := json.Marshal(map[string]any{
		"model":   spec,
		"trace":   map[string]any{"names": []string{"c0_0"}, "interval": 0.01, "rows": [][]float64{{1}, {1}}},
		"persist": "run-x",
	})
	start := time.Now()
	resp2, data2 := postJSON(t, front.Client(), front.URL+"/v1/transient", tb)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("persist transient: %d %s", resp2.StatusCode, data2)
	}
	if elapsed := time.Since(start); elapsed < 300*time.Millisecond && strings.Contains(string(data2), "slow") {
		t.Fatalf("persist transient finished in %v with the slow primary — did it hedge?", elapsed)
	}
	if s := rt.Stats(); s.HedgesLaunched != hedged {
		t.Errorf("hedges_launched = %d after persist transient, want still %d", s.HedgesLaunched, hedged)
	}
}

// TestRouterHedgeLargeBody: once a hedge has launched, whichever chain wins
// must deliver its whole body, however large. Cancelling the losing chain
// must not cut off the winner's body copy.
func TestRouterHedgeLargeBody(t *testing.T) {
	const size = 2 << 20
	big := append([]byte(`{"pad":"`), bytes.Repeat([]byte("x"), size)...)
	big = append(big, `"}`...)
	for _, hedgeWins := range []bool{false, true} {
		t.Run(fmt.Sprintf("hedgeWins=%v", hedgeWins), func(t *testing.T) {
			var primaryIdx atomic.Int64
			primaryIdx.Store(-1)
			handler := func(i int) http.Handler {
				mux := http.NewServeMux()
				mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(200) })
				mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
					isPrimary := int64(i) == primaryIdx.Load()
					if isPrimary == hedgeWins {
						// The loser: answer only once cancelled.
						select {
						case <-r.Context().Done():
						case <-time.After(5 * time.Second):
						}
						return
					}
					if isPrimary {
						// Answer after the hedge has launched.
						time.Sleep(100 * time.Millisecond)
					}
					w.Header().Set("Content-Type", "application/json")
					w.Write(big)
				})
				return mux
			}
			h, rt, front := customFleet(t, 2, handler, func(c *Config) {
				c.HedgeDelay = 20 * time.Millisecond
				c.Breaker = BreakerConfig{FailureThreshold: 100, OpenTimeout: 500 * time.Millisecond}
			})
			spec := steadySpec("grid:3x3")
			fp, err := spec.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			for i, addr := range h.Addrs() {
				if addr == rt.Ring().Owner(fp) {
					primaryIdx.Store(int64(i))
				}
			}
			resp, data := postJSON(t, front.Client(), front.URL+"/v1/steady", steadyBody(t, spec))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			if !bytes.Equal(data, big) {
				t.Fatalf("winner's body: got %d bytes, want %d", len(data), len(big))
			}
			s := rt.Stats()
			if s.HedgesLaunched != 1 || (s.HedgesWon == 1) != hedgeWins {
				t.Fatalf("hedges launched %d, won %d; want 1 launched, hedge winning = %v",
					s.HedgesLaunched, s.HedgesWon, hedgeWins)
			}
		})
	}
}

// TestRouterExhaustAndNoReplica: with every replica dead, the first request
// burns its budget into a 502 and trips every breaker; subsequent requests
// shed 503 + Retry-After without an upstream call, and /readyz reports the
// empty rotation while /healthz stays alive.
func TestRouterExhaustAndNoReplica(t *testing.T) {
	h, rt, front := customFleet(t, 2, func(int) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(200) })
	}, nil)
	h.Kill(0)
	h.Kill(1)

	body := steadyBody(t, steadySpec("grid:3x3"))
	resp, data := postJSON(t, front.Client(), front.URL+"/v1/steady", body)
	if resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(data), "retry budget exhausted") {
		t.Fatalf("first request: %d %s, want 502 exhausted", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("502 must carry Retry-After")
	}

	resp2, data2 := postJSON(t, front.Client(), front.URL+"/v1/steady", body)
	if resp2.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(data2), "no replica available") {
		t.Fatalf("second request: %d %s, want 503 no-replica", resp2.StatusCode, data2)
	}
	if resp2.Header.Get("Retry-After") != "1" {
		t.Errorf("shed Retry-After = %q, want 1", resp2.Header.Get("Retry-After"))
	}

	rz, err := front.Client().Get(front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz = %d with empty rotation, want 503", rz.StatusCode)
	}
	hz, err := front.Client().Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d, want 200 (router liveness is not fleet readiness)", hz.StatusCode)
	}

	s := rt.Stats()
	if s.Exhausted != 1 || s.NoReplica != 1 || s.Proxied != 2 {
		t.Errorf("counters = %+v", s)
	}
	if s.Proxied != s.Routed+s.RouteErrors+s.NoReplica {
		t.Errorf("proxied identity broken: %+v", s)
	}
}

// TestRouterStatsEndpoint: the proxy's /v1/stats serves the fleet block.
func TestRouterStatsEndpoint(t *testing.T) {
	_, _, front := serviceFleet(t, 2, nil)
	resp, err := front.Client().Get(front.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Fleet.Replicas) != 2 {
		t.Fatalf("fleet stats replicas = %d, want 2", len(sr.Fleet.Replicas))
	}
	for _, rs := range sr.Fleet.Replicas {
		if rs.Breaker != "closed" || !rs.Available {
			t.Errorf("fresh replica %s: breaker=%s available=%v", rs.Addr, rs.Breaker, rs.Available)
		}
	}
}

// spaces reads as an endless run of spaces.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestRouterBodyLimit: a body one byte over service.MaxBodyBytes is
// rejected before any upstream call (it could not be replayed on retry).
func TestRouterBodyLimit(t *testing.T) {
	_, rt, front := serviceFleet(t, 1, nil)
	req, err := http.NewRequest("POST", front.URL+"/v1/steady", io.LimitReader(spaces{}, service.MaxBodyBytes+1))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = service.MaxBodyBytes + 1
	req.Header.Set("Content-Type", "application/json")
	resp, err := front.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d %s, want 413", resp.StatusCode, data)
	}
	if s := rt.Stats(); s.RouteErrors != 1 || s.Routed != 0 {
		t.Errorf("counters = %+v", s)
	}
}

// TestRouteKey pins the routing keys: solves key on the model fingerprint
// (the replica cache key), queries on the series, everything else on a
// stable body digest.
func TestRouteKey(t *testing.T) {
	routeKey := func(r *http.Request, body []byte) string {
		key, _ := route(r, body)
		return key
	}

	spec := steadySpec("grid:3x3")
	fp, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	steady := httptest.NewRequest("POST", "/v1/steady", nil)
	if got := routeKey(steady, steadyBody(t, spec)); got != fp {
		t.Errorf("steady key = %q, want model fingerprint %q", got, fp)
	}

	sweepBody, _ := json.Marshal(map[string]any{"scenarios": []map[string]any{{"model": spec}}})
	sweep := httptest.NewRequest("POST", "/v1/sweep", nil)
	if got := routeKey(sweep, sweepBody); got != fp {
		t.Errorf("sweep key = %q, want first scenario's fingerprint %q", got, fp)
	}

	// Streamed transient: the spec rides the query string, the body is NDJSON.
	stream := httptest.NewRequest("POST", "/v1/transient?floorplan=grid:3x3&package=oil-silicon", nil)
	stream.Header.Set("Content-Type", "application/x-ndjson")
	wantFP, err := service.ModelSpec{Floorplan: "grid:3x3", Package: "oil-silicon"}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if got := routeKey(stream, []byte("0 1 2\n")); got != wantFP {
		t.Errorf("streamed transient key = %q, want %q", got, wantFP)
	}

	q := httptest.NewRequest("GET", "/v1/query?series=run-1/c0_0", nil)
	if got := routeKey(q, nil); got != "series:run-1/c0_0" {
		t.Errorf("query key = %q", got)
	}
	listing := httptest.NewRequest("GET", "/v1/query/series", nil)
	if got := routeKey(listing, nil); got != "series-listing" {
		t.Errorf("listing key = %q", got)
	}

	fingerprint := func(spec service.ModelSpec) string {
		t.Helper()
		fp, err := spec.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	oil := fingerprint(spec)
	air := fingerprint(service.ModelSpec{Floorplan: "grid:4x4", Package: "air-sink"})
	flp := "a\t8e-3\t16e-3\t0\t0\nb\t8e-3\t16e-3\t8e-3\t0\n"
	allParams := service.ModelSpec{Floorplan: "ev6", FLP: flp, Package: "oil-silicon", Direction: "l2r",
		Rconv: 0.5, Secondary: true, AmbientC: 30}
	inline, _ := json.Marshal(map[string]any{"model": spec, "trace": map[string]any{"names": []string{"c0_0"}}})
	persisted, _ := json.Marshal(map[string]any{"model": spec, "persist": "run-1"})
	multiSweep, _ := json.Marshal(map[string]any{"scenarios": []map[string]any{
		{"model": service.ModelSpec{Floorplan: "grid:4x4", Package: "air-sink"}}, {"model": spec}}})
	streamBody := []byte("0 1 2\n")
	for _, tc := range []struct {
		name, method, target, ctype string
		body                        []byte
		want                        string
	}{
		{"invert", "POST", "/v1/invert", "", steadyBody(t, spec), oil},
		{"inline transient", "POST", "/v1/transient", "application/json", inline, oil},
		{"inline persisting transient", "POST", "/v1/transient", "", persisted, oil},
		{"charset JSON transient", "POST", "/v1/transient", "application/json; charset=utf-8", inline, oil},
		{"multi-scenario sweep", "POST", "/v1/sweep", "", multiSweep, air},
		{"streamed transient, every model parameter", "POST", "/v1/transient?floorplan=ev6&flp=" + url.QueryEscape(flp) +
			"&package=oil-silicon&direction=l2r&rconv=0.5&secondary=true&ambient_c=30&persist=run-2&max_points=3",
			"text/plain", streamBody, fingerprint(allParams)},
		// The replica answers 400 to a malformed rconv, so the model does
		// not read and the request keys on its digest.
		{"streamed transient, malformed rconv", "POST", "/v1/transient?rconv=x", "text/plain", streamBody,
			bodyDigest("POST", "/v1/transient", streamBody)},
	} {
		r := httptest.NewRequest(tc.method, tc.target, nil)
		if tc.ctype != "" {
			r.Header.Set("Content-Type", tc.ctype)
		}
		if got := routeKey(r, tc.body); got != tc.want {
			t.Errorf("%s: key = %q, want %q", tc.name, got, tc.want)
		}
	}

	// Uninterpretable bodies: stable digest, distinct per body.
	junk := httptest.NewRequest("POST", "/v1/steady", nil)
	k1 := routeKey(junk, []byte("not json"))
	k2 := routeKey(junk, []byte("not json"))
	k3 := routeKey(junk, []byte("other"))
	if k1 != k2 || k1 == k3 || !strings.HasPrefix(k1, "req:") {
		t.Errorf("digest keys: %q %q %q", k1, k2, k3)
	}
}

// TestHedgeEligible pins which requests may be raced: idempotent solves and
// reads, never a persisting transient.
func TestHedgeEligible(t *testing.T) {
	spec := steadySpec("grid:3x3")
	mk := func(method, path, ct string, body []byte) (*http.Request, []byte) {
		r := httptest.NewRequest(method, path, nil)
		if ct != "" {
			r.Header.Set("Content-Type", ct)
		}
		return r, body
	}
	persistBody, _ := json.Marshal(map[string]any{"model": spec, "persist": "run-1"})
	pureBody, _ := json.Marshal(map[string]any{"model": spec})
	cases := []struct {
		name string
		req  *http.Request
		body []byte
		want bool
	}{}
	add := func(name string, r *http.Request, b []byte, want bool) {
		cases = append(cases, struct {
			name string
			req  *http.Request
			body []byte
			want bool
		}{name, r, b, want})
	}
	r, b := mk("POST", "/v1/steady", "", pureBody)
	add("steady", r, b, true)
	r, b = mk("POST", "/v1/invert", "", pureBody)
	add("invert", r, b, true)
	r, b = mk("GET", "/v1/query?series=s", "", nil)
	add("query", r, b, true)
	r, b = mk("POST", "/v1/transient", "", pureBody)
	add("pure transient", r, b, true)
	r, b = mk("POST", "/v1/transient", "", persistBody)
	add("persisting transient", r, b, false)
	r, b = mk("POST", "/v1/transient?persist=run-2", "application/x-ndjson", []byte("0 1\n"))
	add("persisting streamed transient", r, b, false)
	r, b = mk("POST", "/v1/transient", "application/x-ndjson", []byte("0 1\n"))
	add("pure streamed transient", r, b, true)
	r, b = mk("POST", "/v1/transient", "application/json; charset=utf-8", pureBody)
	add("charset JSON transient", r, b, true)
	r, b = mk("POST", "/v1/transient", "application/json; charset=utf-8", persistBody)
	add("charset JSON persisting transient", r, b, false)
	r, b = mk("POST", "/v1/transient", "", []byte("not json"))
	add("undecodable JSON transient", r, b, false)
	r, b = mk("POST", "/v1/transient?floorplan=ev6&package=oil-silicon&direction=l2r&rconv=0.5&secondary=true&ambient_c=30",
		"text/plain", []byte("0 1\n"))
	add("streamed transient, every model parameter", r, b, true)
	r, b = mk("POST", "/v1/transient?rconv=x", "text/plain", []byte("0 1\n"))
	add("streamed transient, malformed rconv", r, b, false)
	r, b = mk("POST", "/v1/sweep", "", nil)
	add("sweep", r, b, false)
	multiSweep, _ := json.Marshal(map[string]any{"scenarios": []map[string]any{{"model": spec}, {"model": spec}}})
	r, b = mk("POST", "/v1/sweep", "", multiSweep)
	add("multi-scenario sweep", r, b, false)
	r, b = mk("POST", "/v1/scenario", "", nil)
	add("scenario", r, b, false)
	for _, tc := range cases {
		if _, got := route(tc.req, tc.body); got != tc.want {
			t.Errorf("%s: hedge = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestNewValidation: config errors surface at construction.
func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty replica list must fail")
	}
	if _, err := New(Config{Replicas: []string{"a:1", "a:1"}}); err == nil {
		t.Error("duplicate replicas must fail")
	}
	rt, err := New(Config{Replicas: []string{" a:1 ", "http://b:2/"}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatalf("normalizing config failed: %v", err)
	}
	defer rt.Close()
	if fmt.Sprint(rt.Ring().Replicas()) != "[a:1 http://b:2/]" {
		t.Errorf("membership = %v", rt.Ring().Replicas())
	}
	if rt.replicas["a:1"].baseURL != "http://a:1" || rt.replicas["http://b:2/"].baseURL != "http://b:2" {
		t.Errorf("base URLs: %q %q", rt.replicas["a:1"].baseURL, rt.replicas["http://b:2/"].baseURL)
	}
}
