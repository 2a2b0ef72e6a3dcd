package fleet

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position (DESIGN.md §13.2).
type BreakerState int32

const (
	// BreakerClosed: traffic flows; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: traffic is refused until the open timeout elapses.
	BreakerOpen
	// BreakerHalfOpen: a bounded number of concurrent probes are admitted;
	// one success closes the breaker, one failure reopens it.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig tunes a Breaker. Zero fields take the defaults.
type BreakerConfig struct {
	// FailureThreshold is the consecutive-failure count that trips
	// closed → open (default 3).
	FailureThreshold int
	// OpenTimeout is how long an open breaker refuses before admitting
	// half-open probes (default 1 s).
	OpenTimeout time.Duration
	// HalfOpenProbes bounds concurrent in-flight probes while half-open
	// (default 1): a recovering replica sees a trickle, not the full load.
	HalfOpenProbes int

	// now is injectable time for the state-transition table tests.
	now func() time.Time
}

func (c BreakerConfig) defaulted() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.OpenTimeout <= 0 {
		c.OpenTimeout = time.Second
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 1
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Breaker is a closed/open/half-open circuit breaker guarding one replica.
// Both real request outcomes and health-probe outcomes feed it, so a replica
// with no traffic still trips on failed probes and a tripped replica rejoins
// when a probe (admitted by the half-open state) succeeds.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	failures int       // consecutive, while closed
	openedAt time.Time // while open
	probes   int       // in-flight admitted probes, while half-open
	trips    int64     // closed→open transitions ever
}

// NewBreaker builds a breaker from the (defaulted) config.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.defaulted()}
}

// Allow reports whether a call may proceed, performing the open → half-open
// transition once the open timeout has elapsed. In the half-open state it
// admits at most HalfOpenProbes concurrent calls; every admitted call MUST
// be answered with OnSuccess, OnFailure or OnAbandon to release its probe
// slot.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.cfg.now().Sub(b.openedAt) < b.cfg.OpenTimeout {
			return false
		}
		b.state = BreakerHalfOpen
		b.probes = 0
		fallthrough
	default: // half-open
		if b.probes >= b.cfg.HalfOpenProbes {
			return false
		}
		b.probes++
		return true
	}
}

// OnSuccess records a successful call: resets the failure streak while
// closed, and closes the breaker from half-open.
func (b *Breaker) OnSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.failures = 0
	case BreakerHalfOpen:
		b.state = BreakerClosed
		b.failures = 0
		b.probes = 0
	}
}

// OnFailure records a failed call: trips closed → open at the consecutive
// threshold, and reopens from half-open immediately (re-arming the timeout).
func (b *Breaker) OnFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.trip()
		}
	case BreakerHalfOpen:
		b.trip()
	case BreakerOpen:
		// A straggler from before the trip; the breaker is already open.
	}
}

// OnAbandon records an admitted call that ended without a verdict on the
// replica: its own caller cancelled it (the loser of a won hedge, or a
// client that went away). The state and the failure streak stay as they
// are; in the half-open state the call's probe slot is freed.
func (b *Breaker) OnAbandon() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen && b.probes > 0 {
		b.probes--
	}
}

// trip moves to open (caller holds the lock).
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.cfg.now()
	b.failures = 0
	b.probes = 0
	b.trips++
}

// State returns the current position without performing transitions.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips counts closed→open transitions over the breaker's lifetime.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}
