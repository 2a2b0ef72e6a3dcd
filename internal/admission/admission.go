// Package admission is the per-tenant admission controller for the thermal
// serving stack (DESIGN.md §12). It decides, for every incoming solve
// request, whether the request runs now, waits in a bounded queue, or is
// shed with a typed error that tells the client when to retry.
//
// Three mechanisms compose:
//
//   - Token buckets bound each tenant's sustained request rate. A tenant
//     with RatePerSec r and Burst b may always issue b back-to-back
//     requests and r per second thereafter; beyond that, requests are shed
//     immediately with a Retry-After derived from the bucket's refill.
//   - Concurrency and queue quotas bound each tenant's share of the solve
//     slots and of the global queue, so one tenant's backlog cannot occupy
//     every slot a lighter tenant needs.
//   - Start-time weighted fair queuing orders the global queue: each
//     tenant advances a virtual start time by 1/Weight per dispatched
//     request, and the waiter with the smallest virtual time runs next.
//     A heavy tenant's deep backlog therefore costs it (its virtual time
//     races ahead) while an occasional tenant is dispatched almost
//     immediately on arrival.
//
// The controller also keeps per-tenant statistics and the live queue
// occupancy for /v1/stats.
package admission

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/pctl"
)

// Quota bounds one tenant's resource share. Zero fields fall back to
// "unlimited" for rates and to controller-wide bounds for the rest.
type Quota struct {
	// RatePerSec is the sustained request rate; 0 disables rate limiting
	// for the tenant.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the token-bucket depth; 0 with a positive rate defaults to
	// max(1, ceil(RatePerSec)).
	Burst int `json:"burst,omitempty"`
	// MaxConcurrent caps the tenant's in-flight solves; 0 means "up to all
	// slots".
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	// MaxQueue caps the tenant's waiters in the global queue; 0 means "up
	// to the whole queue".
	MaxQueue int `json:"max_queue,omitempty"`
	// Weight is the fair-queuing share; 0 defaults to 1. A tenant with
	// weight 3 drains three queued requests for every one a weight-1
	// tenant drains under contention.
	Weight float64 `json:"weight,omitempty"`
}

func (q Quota) weight() float64 {
	if q.Weight <= 0 {
		return 1
	}
	return q.Weight
}

func (q Quota) burst() float64 {
	if q.RatePerSec <= 0 {
		return 0
	}
	if q.Burst > 0 {
		return float64(q.Burst)
	}
	b := q.RatePerSec
	if b < 1 {
		b = 1
	}
	return float64(int(b + 0.999999))
}

// Config sizes a Controller.
type Config struct {
	// Slots is the number of concurrent solve slots (required, > 0).
	Slots int
	// QueueDepth bounds the total number of waiters across all tenants;
	// 0 means no queue: a request either gets a slot or is shed.
	QueueDepth int
	// Default is the quota applied to tenants without an explicit entry.
	Default Quota
	// Tenants maps tenant name → quota override.
	Tenants map[string]Quota
	// Now is a test seam for the clock; nil means time.Now.
	Now func() time.Time
}

// Reason classifies why a request was shed.
type Reason string

const (
	// ReasonRate: the tenant's token bucket was empty.
	ReasonRate Reason = "rate"
	// ReasonTenantQueue: the tenant hit its MaxQueue share.
	ReasonTenantQueue Reason = "tenant-queue"
	// ReasonQueueFull: the global queue was full.
	ReasonQueueFull Reason = "queue-full"
	// ReasonDraining: the controller is draining for shutdown.
	ReasonDraining Reason = "draining"
)

// ShedError reports an admission rejection. RetryAfter is the controller's
// estimate of when a retry could succeed: the token-bucket refill time for
// rate sheds, a smoothed service-time estimate for queue sheds.
type ShedError struct {
	Tenant     string
	Reason     Reason
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("admission: tenant %q shed (%s), retry after %s", e.Tenant, e.Reason, e.RetryAfter)
}

// Decision is a granted admission. Release must be called exactly once when
// the solve finishes; it frees the slot and dispatches the next waiter.
type Decision struct {
	// Tenant is the resolved tenant name.
	Tenant string
	// Queued reports whether the request waited in the queue at all.
	Queued bool
	// QueueWait is how long the request waited before getting a slot.
	QueueWait time.Duration

	release func()
}

// Release frees the slot. Safe to call exactly once; the service layer's
// handler defers it.
func (d *Decision) Release() { d.release() }

// waiter is one queued request.
type waiter struct {
	tenant *tenant
	vtime  float64   // virtual start time for WFQ ordering
	seq    uint64    // FIFO tie-break within equal vtime
	ready  chan bool // true = slot granted, false = evicted (drain)
}

// tenant is the per-tenant admission state. All fields are guarded by the
// controller mutex.
type tenant struct {
	name  string
	quota Quota

	tokens   float64   // token bucket level
	lastFill time.Time // last refill timestamp

	vtime float64 // WFQ virtual start time

	inFlight int
	queued   int

	// Monotonic counters for /v1/stats.
	admitted     int64
	shedRate     int64
	shedQueue    int64
	queueWaits   *pctl.Ring // queue waits, milliseconds
	totalWaitNS  int64
	queuedEvents int64
}

// Controller is the admission gate. One instance serves all handlers.
type Controller struct {
	mu  sync.Mutex
	cfg Config
	now func() time.Time

	tenants map[string]*tenant
	queue   []*waiter // WFQ-ordered waiters (smallest vtime first)
	seq     uint64

	inFlight int
	vclock   float64 // global virtual clock: max vtime ever dispatched

	draining bool

	// holdEWMA is a smoothed solve hold time used to estimate Retry-After
	// for queue sheds (how long until a slot likely frees).
	holdEWMA time.Duration
}

// New builds a controller. Panics on a non-positive slot count — that is a
// construction bug, not a runtime condition.
func New(cfg Config) *Controller {
	if cfg.Slots <= 0 {
		panic("admission: Slots must be > 0")
	}
	if cfg.QueueDepth < 0 {
		panic("admission: QueueDepth must be >= 0")
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return &Controller{
		cfg:     cfg,
		now:     now,
		tenants: make(map[string]*tenant),
	}
}

// DefaultTenant is the tenant requests without an X-Tenant header map to.
const DefaultTenant = "default"

func (c *Controller) tenantLocked(name string) *tenant {
	if name == "" {
		name = DefaultTenant
	}
	t, ok := c.tenants[name]
	if !ok {
		q, ok := c.cfg.Tenants[name]
		if !ok {
			q = c.cfg.Default
		}
		t = &tenant{
			name:       name,
			quota:      q,
			tokens:     q.burst(),
			lastFill:   c.now(),
			vtime:      c.vclock,
			queueWaits: pctl.NewRing(512),
		}
		c.tenants[name] = t
	}
	return t
}

// refillLocked tops up the tenant's token bucket for elapsed wall time.
func (c *Controller) refillLocked(t *tenant, now time.Time) {
	if t.quota.RatePerSec <= 0 {
		return
	}
	dt := now.Sub(t.lastFill).Seconds()
	if dt <= 0 {
		return
	}
	t.tokens += dt * t.quota.RatePerSec
	if b := t.quota.burst(); t.tokens > b {
		t.tokens = b
	}
	t.lastFill = now
}

// retryAfterRateLocked estimates when the bucket next holds a full token.
func (c *Controller) retryAfterRateLocked(t *tenant) time.Duration {
	deficit := 1 - t.tokens
	if deficit <= 0 {
		return time.Millisecond
	}
	d := time.Duration(deficit / t.quota.RatePerSec * float64(time.Second))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// retryAfterQueueLocked estimates when queue space frees: the smoothed hold
// time, floored at 100ms so clients never thundering-herd a hot server.
func (c *Controller) retryAfterQueueLocked() time.Duration {
	d := c.holdEWMA
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	return d
}

// maxConc resolves the tenant's concurrency cap against the slot count.
func (c *Controller) maxConc(t *tenant) int {
	if t.quota.MaxConcurrent <= 0 || t.quota.MaxConcurrent > c.cfg.Slots {
		return c.cfg.Slots
	}
	return t.quota.MaxConcurrent
}

// maxQueue resolves the tenant's queue cap against the global depth.
func (c *Controller) maxQueue(t *tenant) int {
	if t.quota.MaxQueue <= 0 || t.quota.MaxQueue > c.cfg.QueueDepth {
		return c.cfg.QueueDepth
	}
	return t.quota.MaxQueue
}

// Admit gates one request. It blocks while the request waits in the queue,
// honouring ctx: a context deadline or cancellation while queued removes
// the waiter and returns ctx.Err(). Rejections return *ShedError.
func (c *Controller) Admit(ctx context.Context, tenantName string) (*Decision, error) {
	c.mu.Lock()
	now := c.now()
	t := c.tenantLocked(tenantName)

	if c.draining {
		c.mu.Unlock()
		return nil, &ShedError{Tenant: t.name, Reason: ReasonDraining, RetryAfter: c.retryAfterQueueLocked()}
	}

	// Rate gate first: a rate-shed request never consumes queue space.
	if t.quota.RatePerSec > 0 {
		c.refillLocked(t, now)
		if t.tokens < 1 {
			t.shedRate++
			retry := c.retryAfterRateLocked(t)
			c.mu.Unlock()
			return nil, &ShedError{Tenant: t.name, Reason: ReasonRate, RetryAfter: retry}
		}
		t.tokens--
	}

	// Fast path: free slot, tenant under its concurrency cap, and nobody
	// ahead in the queue (granting out of order would starve waiters).
	if c.inFlight < c.cfg.Slots && t.inFlight < c.maxConc(t) && len(c.queue) == 0 {
		d := c.grantLocked(t, now, false, 0)
		c.mu.Unlock()
		return d, nil
	}

	// Queue gates. A queue-shed request never ran, so its rate token is
	// refunded — the rate quota charges work performed, not work attempted.
	if len(c.queue) >= c.cfg.QueueDepth {
		t.shedQueue++
		c.refundLocked(t)
		retry := c.retryAfterQueueLocked()
		c.mu.Unlock()
		return nil, &ShedError{Tenant: t.name, Reason: ReasonQueueFull, RetryAfter: retry}
	}
	if t.queued >= c.maxQueue(t) {
		t.shedQueue++
		c.refundLocked(t)
		retry := c.retryAfterQueueLocked()
		c.mu.Unlock()
		return nil, &ShedError{Tenant: t.name, Reason: ReasonTenantQueue, RetryAfter: retry}
	}

	// Enqueue under WFQ. Catching the tenant's virtual time up to the
	// global clock on enqueue stops an idle tenant from banking credit
	// while it was away.
	if t.vtime < c.vclock {
		t.vtime = c.vclock
	}
	c.seq++
	w := &waiter{tenant: t, vtime: t.vtime, seq: c.seq, ready: make(chan bool, 1)}
	t.vtime += 1 / t.quota.weight()
	c.insertWaiterLocked(w)
	t.queued++
	c.mu.Unlock()

	select {
	case granted := <-w.ready:
		if !granted {
			// Evicted by drain.
			c.mu.Lock()
			retry := c.retryAfterQueueLocked()
			c.mu.Unlock()
			return nil, &ShedError{Tenant: t.name, Reason: ReasonDraining, RetryAfter: retry}
		}
		c.mu.Lock()
		wait := c.now().Sub(now)
		d := c.grantQueuedLocked(t, now, wait)
		c.mu.Unlock()
		return d, nil
	case <-ctx.Done():
		c.mu.Lock()
		if c.removeWaiterLocked(w) {
			t.queued--
			c.refundLocked(t)
			c.mu.Unlock()
			return nil, ctx.Err()
		}
		c.mu.Unlock()
		// The grant raced the cancellation: the slot is already ours. Give
		// it straight back and uncount the admission — the request never
		// ran, so it must reconcile as a cancellation, not an admission.
		if granted := <-w.ready; granted {
			c.mu.Lock()
			t.admitted--
			c.refundLocked(t)
			c.inFlight--
			t.inFlight--
			c.dispatchLocked()
			c.mu.Unlock()
		}
		return nil, ctx.Err()
	}
}

// refundLocked returns the rate token a cancelled waiter consumed: the
// request never ran, so it should not count against the tenant's rate.
func (c *Controller) refundLocked(t *tenant) {
	if t.quota.RatePerSec <= 0 {
		return
	}
	t.tokens++
	if b := t.quota.burst(); t.tokens > b {
		t.tokens = b
	}
}

// grantLocked admits a request that never queued.
func (c *Controller) grantLocked(t *tenant, now time.Time, queued bool, wait time.Duration) *Decision {
	c.inFlight++
	t.inFlight++
	t.admitted++
	// Fast-path dispatch advances the tenant's virtual time too, so a
	// tenant hammering the fast path still pays its fair share when the
	// queue later forms.
	if t.vtime < c.vclock {
		t.vtime = c.vclock
	}
	t.vtime += 1 / t.quota.weight()
	return c.decisionLocked(t, now, queued, wait)
}

// grantQueuedLocked finalizes a queued request after its ready signal.
// Slot and gauge accounting already happened in dispatchLocked; this only
// builds the Decision and records the wait.
func (c *Controller) grantQueuedLocked(t *tenant, start time.Time, wait time.Duration) *Decision {
	t.queueWaits.Add(float64(wait) / float64(time.Millisecond))
	t.totalWaitNS += int64(wait)
	t.queuedEvents++
	return c.decisionLocked(t, start, true, wait)
}

func (c *Controller) decisionLocked(t *tenant, now time.Time, queued bool, wait time.Duration) *Decision {
	var once sync.Once
	d := &Decision{Tenant: t.name, Queued: queued, QueueWait: wait}
	start := c.now()
	d.release = func() {
		once.Do(func() { c.release(t, start) })
	}
	return d
}

// release frees a slot, updates the hold-time estimate and dispatches the
// next eligible waiter.
func (c *Controller) release(t *tenant, start time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	hold := c.now().Sub(start)
	if c.holdEWMA == 0 {
		c.holdEWMA = hold
	} else {
		c.holdEWMA = (c.holdEWMA*7 + hold) / 8
	}
	c.inFlight--
	t.inFlight--
	c.dispatchLocked()
}

// dispatchLocked hands free slots to queued waiters in WFQ order, skipping
// tenants at their concurrency cap.
func (c *Controller) dispatchLocked() {
	for c.inFlight < c.cfg.Slots {
		idx := -1
		for i, w := range c.queue {
			if w.tenant.inFlight < c.maxConc(w.tenant) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return
		}
		w := c.queue[idx]
		c.queue = append(c.queue[:idx], c.queue[idx+1:]...)
		if w.vtime > c.vclock {
			c.vclock = w.vtime
		}
		w.tenant.queued--
		c.inFlight++
		w.tenant.inFlight++
		w.tenant.admitted++
		w.ready <- true
	}
}

// insertWaiterLocked keeps the queue sorted by (vtime, seq).
func (c *Controller) insertWaiterLocked(w *waiter) {
	i := sort.Search(len(c.queue), func(i int) bool {
		q := c.queue[i]
		if q.vtime != w.vtime {
			return q.vtime > w.vtime
		}
		return q.seq > w.seq
	})
	c.queue = append(c.queue, nil)
	copy(c.queue[i+1:], c.queue[i:])
	c.queue[i] = w
}

// removeWaiterLocked drops w from the queue, reporting whether it was still
// there (false means a dispatch already granted it a slot).
func (c *Controller) removeWaiterLocked(w *waiter) bool {
	for i, q := range c.queue {
		if q == w {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return true
		}
	}
	return false
}

// Drain stops admitting: every new request is shed with ReasonDraining and
// every queued waiter is evicted immediately. In-flight solves are
// untouched; the caller waits for them via InFlight or its own tracking.
func (c *Controller) Drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return
	}
	c.draining = true
	for _, w := range c.queue {
		w.tenant.queued--
		w.tenant.shedQueue++
		w.ready <- false
	}
	c.queue = c.queue[:0]
}

// Draining reports whether Drain has been called.
func (c *Controller) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// InFlight returns the current number of granted, unreleased admissions.
func (c *Controller) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inFlight
}

// Queued returns the current number of queued waiters.
func (c *Controller) Queued() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}
