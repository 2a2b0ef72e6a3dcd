// Package fleet is the routing front end for a multi-replica thermal
// service (DESIGN.md §13): it spreads requests across N service.Server
// replicas and survives replicas dying mid-load.
//
// Solve requests route by the model fingerprint they resolve to — the same
// hotspot.Config.Fingerprint key the per-replica single-flight model cache
// uses — over a consistent-hash ring (virtual nodes, bounded load), so the
// replica that likely holds the compiled model serves the request and a
// membership change moves only ~K/N keys. A per-replica health prober
// (periodic GET /readyz) and a closed/open/half-open circuit breaker eject
// bad replicas from rotation; the request path does capped-exponential
// retries with full jitter honoring the service's Retry-After convention,
// deadline-aware hedged requests on idempotent solves, and failover to the
// next ring owner — where the replica's own single-flight cache guarantees
// the model recompiles at most once.
//
// The router serves the same HTTP surface as a single replica plus its own
// /healthz, /readyz and a /v1/stats fleet block; cmd/thermsvc exposes it as
// `thermsvc -fleet host:port,host:port,...`.
package fleet

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes the router. Only Replicas is required.
type Config struct {
	// Replicas lists the backend addresses ("host:port" or "http://host:port").
	Replicas []string
	// ProbeInterval spaces health-probe rounds (default 1 s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request (default 500 ms).
	ProbeTimeout time.Duration
	// Breaker tunes the per-replica circuit breakers.
	Breaker BreakerConfig
	// Retry tunes the per-request retry/backoff budget. MaxAttempts is the
	// total upstream-call budget per logical request, across failovers.
	Retry RetryPolicy
	// HedgeDelay is how long the primary attempt runs alone before an
	// idempotent request is hedged to the next ring owner (default 200 ms;
	// negative disables hedging).
	HedgeDelay time.Duration
	// Transport overrides the upstream round tripper (tests).
	Transport http.RoundTripper
}

func (c Config) defaulted() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 500 * time.Millisecond
	}
	if c.HedgeDelay == 0 {
		c.HedgeDelay = 200 * time.Millisecond
	}
	c.Retry = c.Retry.defaulted()
	return c
}

// replica is the router's view of one backend.
type replica struct {
	name    string // ring member key (normalized config entry)
	baseURL string // "http://host:port"
	breaker *Breaker

	up          atomic.Bool  // availability as last derived from the breaker
	inFlight    atomic.Int64 // upstream calls currently running
	attempts    atomic.Int64 // upstream calls ever issued
	failures    atomic.Int64 // calls classified as replica failures
	probes      atomic.Int64 // health probes issued
	probeFails  atomic.Int64 // health probes failed
	transitions atomic.Int64 // up<->down flips
}

// Router fans requests across the replica fleet.
type Router struct {
	cfg      Config
	ring     *Ring
	replicas map[string]*replica // by ring member name
	client   *http.Client
	retry    *RetryClient // reused for probe-free helpers; stats hooks wired

	counters fleetCounters

	stopOnce sync.Once
	stopc    chan struct{}
	done     sync.WaitGroup
}

// fleetCounters are the router-level accounting the chaos suite reconciles
// against its request log: every upstream call is exactly one of a primary
// (first call of a logical request), a retry (same replica again), a
// failover (moved to another replica) or a hedge, so
//
//	sum(replica.attempts) = primaries + retries + failovers + hedges_launched
//
// holds at all times once the router is idle.
type fleetCounters struct {
	proxied        atomic.Int64 // logical requests entering the router
	routed         atomic.Int64 // logical requests that issued >= 1 primary call
	routeErrors    atomic.Int64 // rejected before any upstream call (bad body, too large)
	noReplica      atomic.Int64 // shed: no available replica
	retries        atomic.Int64
	failovers      atomic.Int64
	hedgesLaunched atomic.Int64
	hedgesWon      atomic.Int64
	exhausted      atomic.Int64 // logical requests that ran out of attempt budget
	ringMoves      atomic.Int64 // availability transitions (keys reassigned)
}

// New builds a router over the configured replicas and starts its health
// prober. Callers must Close it.
func New(cfg Config) (*Router, error) {
	cfg = cfg.defaulted()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: no replicas configured")
	}
	names := make([]string, 0, len(cfg.Replicas))
	replicas := make(map[string]*replica, len(cfg.Replicas))
	for _, raw := range cfg.Replicas {
		name := strings.TrimSpace(raw)
		if name == "" {
			continue
		}
		base := name
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		base = strings.TrimRight(base, "/")
		if _, dup := replicas[name]; dup {
			return nil, fmt.Errorf("fleet: duplicate replica %q", name)
		}
		rep := &replica{name: name, baseURL: base, breaker: NewBreaker(cfg.Breaker)}
		rep.up.Store(true)
		replicas[name] = rep
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("fleet: no replicas configured")
	}
	transport := cfg.Transport
	if transport == nil {
		transport = &http.Transport{MaxIdleConnsPerHost: 64, IdleConnTimeout: 30 * time.Second}
	}
	rt := &Router{
		cfg:      cfg,
		ring:     NewRing(names),
		replicas: replicas,
		client:   &http.Client{Transport: transport},
		stopc:    make(chan struct{}),
	}
	rt.retry = &RetryClient{HTTP: rt.client, Policy: cfg.Retry}
	rt.done.Add(1)
	go rt.probeLoop()
	return rt, nil
}

// Close stops the health prober. In-flight proxied requests finish.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stopc) })
	rt.done.Wait()
}

// Ring exposes the ring (tests, stats).
func (rt *Router) Ring() *Ring { return rt.ring }

// available reports whether the named replica is in rotation: its breaker
// is not refusing outright. Half-open replicas stay available — the breaker
// itself meters how many probes get through.
func (rt *Router) available(name string) bool {
	rep := rt.replicas[name]
	return rep != nil && rep.breaker.State() != BreakerOpen
}

// noteAvailability re-derives a replica's in-rotation state from its breaker
// and counts the transition (a ring move: the replica's key share just
// changed hands) when it flips.
func (rt *Router) noteAvailability(rep *replica) {
	up := rep.breaker.State() != BreakerOpen
	if rep.up.Swap(up) != up {
		rep.transitions.Add(1)
		rt.counters.ringMoves.Add(1)
	}
}

// AvailableReplicas returns the replicas currently in rotation, in ring
// membership order.
func (rt *Router) AvailableReplicas() []string {
	var out []string
	for _, name := range rt.ring.Replicas() {
		if rt.available(name) {
			out = append(out, name)
		}
	}
	return out
}

// --- health probing ---

// probeLoop drives periodic /readyz probes against every replica. Probe
// outcomes feed the same per-replica breaker as real traffic: consecutive
// failures trip a silent replica out of rotation, and the half-open state
// admits the probe that lets a revived replica rejoin without taking a
// client request as the guinea pig.
func (rt *Router) probeLoop() {
	defer rt.done.Done()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stopc:
			return
		case <-t.C:
		}
		var wg sync.WaitGroup
		for _, rep := range rt.replicas {
			wg.Add(1)
			go func(rep *replica) {
				defer wg.Done()
				rt.probe(rep)
			}(rep)
		}
		wg.Wait()
	}
}

// probe issues one readiness check, gated by the breaker so an open replica
// is only re-contacted once its open timeout admits a half-open probe.
func (rt *Router) probe(rep *replica) {
	if !rep.breaker.Allow() {
		rt.noteAvailability(rep)
		return
	}
	rep.probes.Add(1)
	ok := rt.probeOnce(rep)
	if ok {
		rep.breaker.OnSuccess()
	} else {
		rep.probeFails.Add(1)
		rep.breaker.OnFailure()
	}
	rt.noteAvailability(rep)
}

func (rt *Router) probeOnce(rep *replica) bool {
	req, err := http.NewRequest(http.MethodGet, rep.baseURL+"/readyz", nil)
	if err != nil {
		return false
	}
	client := &http.Client{Transport: rt.client.Transport, Timeout: rt.cfg.ProbeTimeout}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
