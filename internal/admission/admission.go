// Package admission is the admission controller for the thermal serving
// stack (DESIGN.md §12). It decides, for every incoming solve request,
// whether the request runs now, waits in a bounded queue, or is shed with a
// typed error that tells the client when to retry.
//
// A request takes one of Slots solve slots when one is free and nobody
// waits. Otherwise it joins one QueueDepth-bounded queue, and a full queue
// sheds it. Start-time fair queuing orders the queue with every tenant at
// an equal share: each tenant advances a virtual start time by one per
// admitted request, and the waiter with the smallest virtual time runs
// next. A tenant's deep backlog therefore races ahead in virtual time,
// while an occasional tenant is dispatched almost immediately on arrival.
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

// Config sizes a Controller.
type Config struct {
	// Slots is the number of concurrent solve slots (required, > 0).
	Slots int
	// QueueDepth bounds the total number of waiters across all tenants;
	// 0 means no queue: a request either gets a slot or is shed.
	QueueDepth int
}

// Reason classifies why a request was shed.
type Reason string

const (
	// ReasonQueueFull: the queue was full.
	ReasonQueueFull Reason = "queue-full"
	// ReasonDraining: the controller is draining for shutdown.
	ReasonDraining Reason = "draining"
)

// ShedError reports an admission rejection. RetryAfter is the controller's
// estimate of when a retry could succeed: a smoothed slot-hold time.
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
	vtime  float64   // virtual start time for fair-queuing order
	seq    uint64    // FIFO tie-break within equal vtime
	ready  chan bool // true = slot granted, false = evicted (drain)
}

// tenant is the per-tenant admission state. All fields are guarded by the
// controller mutex.
type tenant struct {
	name  string
	vtime float64 // fair-queuing virtual start time

	inFlight int
	queued   int

	// Monotonic counters for /v1/stats.
	admitted     int64
	shedQueue    int64
	queueWaits   *pctl.Ring // queue waits, milliseconds
	totalWaitNS  int64
	queuedEvents int64
}

// Controller is the admission gate. One instance serves all handlers.
type Controller struct {
	mu  sync.Mutex
	cfg Config

	tenants map[string]*tenant
	queue   []*waiter // waiters in (vtime, seq) order
	seq     uint64

	inFlight int
	vclock   float64 // global virtual clock: max vtime ever dispatched

	draining bool

	// holdEWMA is a smoothed solve hold time used to estimate Retry-After
	// (how long until a slot likely frees).
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
	return &Controller{cfg: cfg, tenants: make(map[string]*tenant)}
}

// DefaultTenant is the tenant requests without an X-Tenant header map to.
const DefaultTenant = "default"

// maxTenants bounds the tenants the controller keeps state for: a name
// first seen once this many are tracked is admitted as DefaultTenant, so
// client-chosen names cannot grow the controller or /v1/stats without
// bound. Each tenant holds a 512-sample wait ring, about 4.4 KB.
const maxTenants = 1024

func (c *Controller) tenantLocked(name string) *tenant {
	if name == "" {
		name = DefaultTenant
	}
	t, ok := c.tenants[name]
	if !ok && len(c.tenants) >= maxTenants {
		name = DefaultTenant
		t, ok = c.tenants[name]
	}
	if !ok {
		t = &tenant{name: name, vtime: c.vclock, queueWaits: pctl.NewRing(512)}
		c.tenants[name] = t
	}
	return t
}

// retryAfterLocked estimates when a slot frees: the smoothed hold time,
// floored at 100ms so clients never thundering-herd a hot server.
func (c *Controller) retryAfterLocked() time.Duration {
	d := c.holdEWMA
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	return d
}

// stampLocked returns the tenant's virtual start time for its next request
// and advances it by the equal share of one. Catching the tenant up to the
// global clock first stops an idle tenant from banking credit while it was
// away.
func (c *Controller) stampLocked(t *tenant) float64 {
	if t.vtime < c.vclock {
		t.vtime = c.vclock
	}
	t.vtime++
	return t.vtime - 1
}

// Admit gates one request. It blocks while the request waits in the queue,
// honouring ctx: a context deadline or cancellation while queued removes
// the waiter and returns ctx.Err(). Rejections return *ShedError.
func (c *Controller) Admit(ctx context.Context, tenantName string) (*Decision, error) {
	c.mu.Lock()
	t := c.tenantLocked(tenantName)

	if c.draining {
		retry := c.retryAfterLocked()
		c.mu.Unlock()
		return nil, &ShedError{Tenant: t.name, Reason: ReasonDraining, RetryAfter: retry}
	}

	// Fast path: a free slot and nobody ahead in the queue (granting out of
	// order would starve waiters). It advances the tenant's virtual time
	// too, so a tenant hammering the fast path still pays its share when
	// the queue later forms.
	if c.inFlight < c.cfg.Slots && len(c.queue) == 0 {
		c.stampLocked(t)
		c.inFlight++
		t.inFlight++
		t.admitted++
		d := c.decisionLocked(t, false, 0)
		c.mu.Unlock()
		return d, nil
	}

	if len(c.queue) >= c.cfg.QueueDepth {
		t.shedQueue++
		retry := c.retryAfterLocked()
		c.mu.Unlock()
		return nil, &ShedError{Tenant: t.name, Reason: ReasonQueueFull, RetryAfter: retry}
	}

	enqueued := time.Now()
	c.seq++
	w := &waiter{tenant: t, vtime: c.stampLocked(t), seq: c.seq, ready: make(chan bool, 1)}
	c.insertWaiterLocked(w)
	t.queued++
	c.mu.Unlock()

	select {
	case granted := <-w.ready:
		c.mu.Lock()
		defer c.mu.Unlock()
		if !granted { // evicted by drain
			return nil, &ShedError{Tenant: t.name, Reason: ReasonDraining, RetryAfter: c.retryAfterLocked()}
		}
		// Slot and gauge accounting already happened in dispatchLocked;
		// this only records the wait.
		wait := time.Since(enqueued)
		t.queueWaits.Add(float64(wait) / float64(time.Millisecond))
		t.totalWaitNS += int64(wait)
		t.queuedEvents++
		return c.decisionLocked(t, true, wait), nil
	case <-ctx.Done():
		c.mu.Lock()
		if c.removeWaiterLocked(w) {
			t.queued--
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
			c.inFlight--
			t.inFlight--
			c.dispatchLocked()
			c.mu.Unlock()
		}
		return nil, ctx.Err()
	}
}

func (c *Controller) decisionLocked(t *tenant, queued bool, wait time.Duration) *Decision {
	var once sync.Once
	d := &Decision{Tenant: t.name, Queued: queued, QueueWait: wait}
	start := time.Now()
	d.release = func() {
		once.Do(func() { c.release(t, start) })
	}
	return d
}

// release frees a slot, updates the hold-time estimate and dispatches the
// next waiter.
func (c *Controller) release(t *tenant, start time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	hold := time.Since(start)
	if c.holdEWMA == 0 {
		c.holdEWMA = hold
	} else {
		c.holdEWMA = (c.holdEWMA*7 + hold) / 8
	}
	c.inFlight--
	t.inFlight--
	c.dispatchLocked()
}

// dispatchLocked hands free slots to the queue's head waiters.
func (c *Controller) dispatchLocked() {
	for c.inFlight < c.cfg.Slots && len(c.queue) > 0 {
		w := c.queue[0]
		c.queue = append(c.queue[:0], c.queue[1:]...)
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
