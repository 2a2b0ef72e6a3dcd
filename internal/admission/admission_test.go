package admission

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func mustAdmit(t *testing.T, c *Controller, tenant string) *Decision {
	t.Helper()
	d, err := c.Admit(context.Background(), tenant)
	if err != nil {
		t.Fatalf("admit %q: %v", tenant, err)
	}
	return d
}

func TestFastPathAdmitRelease(t *testing.T) {
	c := New(Config{Slots: 2, QueueDepth: 4})
	d1 := mustAdmit(t, c, "")
	if d1.Tenant != DefaultTenant {
		t.Fatalf("tenant %q, want %q", d1.Tenant, DefaultTenant)
	}
	if d1.Queued || d1.QueueWait != 0 {
		t.Fatalf("fast path reported queued: %+v", d1)
	}
	d2 := mustAdmit(t, c, "a")
	if got := c.InFlight(); got != 2 {
		t.Fatalf("in-flight %d, want 2", got)
	}
	d1.Release()
	d2.Release()
	d2.Release() // idempotent: double release must not corrupt gauges
	if got := c.InFlight(); got != 0 {
		t.Fatalf("in-flight after release %d, want 0", got)
	}
}

// occupy fills every slot with "hold" admissions and returns their release.
func occupy(t *testing.T, c *Controller, tenant string, n int) func() {
	t.Helper()
	ds := make([]*Decision, n)
	for i := range ds {
		ds[i] = mustAdmit(t, c, tenant)
	}
	return func() {
		for _, d := range ds {
			d.Release()
		}
	}
}

func TestQueueFullSheds(t *testing.T) {
	c := New(Config{Slots: 1, QueueDepth: 1})
	freeHold := occupy(t, c, "hold", 1)

	// One waiter fills the queue.
	waitErr := make(chan error, 1)
	go func() {
		d, err := c.Admit(context.Background(), "m")
		if d != nil {
			d.Release()
		}
		waitErr <- err
	}()
	waitUntil(t, func() bool { return c.Queued() == 1 })

	// The deadline turns an overflow that queues instead of shedding into
	// a failure rather than a hang behind the held slot.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, err := c.Admit(ctx, "m")
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ReasonQueueFull {
		t.Fatalf("overflow admit: %v", err)
	}
	if shed.RetryAfter <= 0 {
		t.Fatalf("queue shed carries no retry-after: %+v", shed)
	}
	freeHold()
	if err := <-waitErr; err != nil {
		t.Fatalf("queued request: %v", err)
	}
	if st := c.Stats().Tenants["m"]; st.Admitted != 1 || st.ShedQueue != 1 {
		t.Fatalf("tenant stats %+v, want 1 admitted, 1 queue shed", st)
	}
}

// TestTenantBound: client-chosen names cannot grow the controller without
// bound. Past maxTenants tracked names, a new name is admitted as
// DefaultTenant.
func TestTenantBound(t *testing.T) {
	c := New(Config{Slots: 1})
	const names = 20000
	for i := 0; i < names; i++ {
		name := fmt.Sprintf("t%d", i)
		d := mustAdmit(t, c, name)
		want := name
		if i >= maxTenants {
			want = DefaultTenant
		}
		if d.Tenant != want {
			t.Fatalf("name %d admitted as %q, want %q", i, d.Tenant, want)
		}
		d.Release()
	}
	st := c.Stats()
	if len(st.Tenants) > maxTenants+1 {
		t.Fatalf("%d tenants tracked, want at most %d", len(st.Tenants), maxTenants+1)
	}
	if got := st.Tenants[DefaultTenant].Admitted; got != names-maxTenants {
		t.Fatalf("default tenant admitted %d, want %d", got, names-maxTenants)
	}
	// A tracked name keeps its own entry.
	d := mustAdmit(t, c, "t0")
	d.Release()
	if d.Tenant != "t0" {
		t.Fatalf("tracked name admitted as %q", d.Tenant)
	}
}

func TestCancelWhileQueuedRestoresGauges(t *testing.T) {
	c := New(Config{Slots: 1, QueueDepth: 4})
	freeHold := occupy(t, c, "hold", 1)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Admit(ctx, "t")
		done <- err
	}()
	waitUntil(t, func() bool { return c.Queued() == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: %v", err)
	}
	if c.Queued() != 0 {
		t.Fatalf("queued %d after cancel, want 0", c.Queued())
	}
	st := c.Stats().Tenants["t"]
	if st.Queued != 0 || st.InFlight != 0 || st.Admitted != 0 {
		t.Fatalf("tenant gauges after cancel: %+v", st)
	}
	freeHold()
	// The slot is reusable.
	mustAdmit(t, c, "t").Release()
}

// queueAndDrain holds the only slot, queues n requests per tenant, one
// tenant after another, then frees the slot and returns the dispatch order.
// Each dispatch waits for the previous release, so the order is exact.
func queueAndDrain(t *testing.T, c *Controller, n int, tenants ...string) string {
	t.Helper()
	freeHold := occupy(t, c, "hold", 1)
	var order []string
	var omu sync.Mutex
	var wg sync.WaitGroup
	for i, tn := range tenants {
		for j := 0; j < n; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d, err := c.Admit(context.Background(), tn)
				if err != nil {
					t.Errorf("admit %s: %v", tn, err)
					return
				}
				omu.Lock()
				order = append(order, tn)
				omu.Unlock()
				d.Release()
			}()
		}
		waitUntil(t, func() bool { return c.Queued() == (i+1)*n })
	}
	freeHold()
	wg.Wait()
	return strings.Join(order, " ")
}

// TestEqualShareDispatch pins the fair-queuing order at equal shares: a
// tenant that queued its whole backlog first still alternates with a tenant
// that queued after it, instead of draining ahead of it.
func TestEqualShareDispatch(t *testing.T) {
	c := New(Config{Slots: 1, QueueDepth: 64})
	const perTenant = 8
	order := queueAndDrain(t, c, perTenant, "first", "second")
	if want := strings.Repeat("first second ", perTenant-1) + "first second"; order != want {
		t.Fatalf("dispatch order %q, want %q", order, want)
	}
	st := c.Stats()
	if st.Tenants["first"].Admitted != perTenant || st.Tenants["second"].Admitted != perTenant {
		t.Fatalf("admitted %+v", st.Tenants)
	}
	if st.Tenants["second"].QueueWaitP99MS == 0 {
		t.Fatal("queued dispatches recorded no wait percentile")
	}
}

// TestNoBankedCredit: fast-path admissions count against a tenant's share,
// and a tenant idle while the queue drained catches up to the global
// virtual clock instead of banking credit.
func TestNoBankedCredit(t *testing.T) {
	c := New(Config{Slots: 1, QueueDepth: 64})
	mustAdmit(t, c, "idle").Release()
	for i := 0; i < 3; i++ {
		mustAdmit(t, c, "busy").Release()
	}
	// busy's three fast-path admissions put it behind a new tenant.
	if order, want := queueAndDrain(t, c, 3, "busy", "fresh"), "fresh fresh fresh busy busy busy"; order != want {
		t.Fatalf("after fast-path admissions: order %q, want %q", order, want)
	}
	// idle's one early admission earns it no run of dispatches now.
	if order, want := queueAndDrain(t, c, 3, "busy", "idle"), "idle busy idle busy idle busy"; order != want {
		t.Fatalf("after idling: order %q, want %q", order, want)
	}
}

func TestDrainEvictsQueueAndShedsNew(t *testing.T) {
	c := New(Config{Slots: 1, QueueDepth: 4})
	hold := mustAdmit(t, c, "work")

	done := make(chan error, 1)
	go func() {
		_, err := c.Admit(context.Background(), "work")
		done <- err
	}()
	waitUntil(t, func() bool { return c.Queued() == 1 })

	c.Drain()
	c.Drain() // idempotent
	var shed *ShedError
	if err := <-done; !errors.As(err, &shed) || shed.Reason != ReasonDraining {
		t.Fatalf("evicted waiter: %v", err)
	}
	if _, err := c.Admit(context.Background(), "work"); !errors.As(err, &shed) || shed.Reason != ReasonDraining {
		t.Fatalf("post-drain admit: %v", err)
	}
	if !c.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	// The in-flight solve is untouched and still releases cleanly.
	if got := c.InFlight(); got != 1 {
		t.Fatalf("in-flight during drain %d, want 1", got)
	}
	hold.Release()
	if got := c.InFlight(); got != 0 {
		t.Fatalf("in-flight after drain release %d, want 0", got)
	}
	if !c.Stats().Draining {
		t.Fatal("snapshot must report draining")
	}
}

// TestDrainShedWhileReleasing: a request shed by drain reads the hold-time
// estimate that concurrent releases write, so it must read it under the
// controller mutex. The race detector checks it.
func TestDrainShedWhileReleasing(t *testing.T) {
	const n = 64
	c := New(Config{Slots: n})
	ds := make([]*Decision, n)
	for i := range ds {
		ds[i] = mustAdmit(t, c, "")
	}
	c.Drain()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, d := range ds {
			d.Release()
		}
	}()
	for i := 0; i < n; i++ {
		var shed *ShedError
		if _, err := c.Admit(context.Background(), ""); !errors.As(err, &shed) || shed.Reason != ReasonDraining {
			t.Fatalf("admit while draining: %v", err)
		}
	}
	<-done
}

// TestGaugeInvariantsUnderStress is the accounting regression test for the
// queued-gauge race the admission controller replaced: hammer Admit/Release
// from many goroutines with random cancellations while a monitor asserts,
// on every observation, 0 <= queued <= QueueDepth and 0 <= inFlight <=
// Slots. The old check-after-increment gauge transiently overcounted.
func TestGaugeInvariantsUnderStress(t *testing.T) {
	const (
		slots   = 4
		depth   = 8
		workers = 32
		iters   = 200
	)
	c := New(Config{Slots: slots, QueueDepth: depth})
	stop := make(chan struct{})
	var monWG sync.WaitGroup
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			q, f := c.Queued(), c.InFlight()
			if q < 0 || q > depth {
				t.Errorf("queued gauge %d outside [0, %d]", q, depth)
				return
			}
			if f < 0 || f > slots {
				t.Errorf("in-flight gauge %d outside [0, %d]", f, slots)
				return
			}
		}
	}()

	tenants := []string{"a", "b", "c"}
	var admitted, shedTotal, cancelled atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if rng.Intn(4) == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(200))*time.Microsecond)
				}
				d, err := c.Admit(ctx, tenants[rng.Intn(len(tenants))])
				cancel()
				switch {
				case err == nil:
					if rng.Intn(3) == 0 {
						time.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
					}
					d.Release()
					admitted.Add(1)
				case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
					cancelled.Add(1)
				default:
					var shed *ShedError
					if !errors.As(err, &shed) {
						t.Errorf("untyped admission error: %v", err)
						return
					}
					shedTotal.Add(1)
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(stop)
	monWG.Wait()

	if got := c.InFlight(); got != 0 {
		t.Fatalf("in-flight %d after quiesce, want 0", got)
	}
	if got := c.Queued(); got != 0 {
		t.Fatalf("queued %d after quiesce, want 0", got)
	}
	// Counter reconciliation: every request ended exactly one way, and the
	// controller's own counters agree with the callers'.
	st := c.Stats()
	var stAdmitted, stShed int64
	for _, ts := range st.Tenants {
		stAdmitted += ts.Admitted
		stShed += ts.ShedQueue
	}
	if total := admitted.Load() + shedTotal.Load() + cancelled.Load(); total != workers*iters {
		t.Fatalf("outcomes %d != requests %d", total, workers*iters)
	}
	if stAdmitted != admitted.Load() {
		t.Fatalf("controller admitted %d, callers saw %d", stAdmitted, admitted.Load())
	}
	if stShed != shedTotal.Load() {
		t.Fatalf("controller shed %d, callers saw %d", stShed, shedTotal.Load())
	}
	if admitted.Load() == 0 || shedTotal.Load() == 0 {
		t.Fatalf("stress run exercised nothing: admitted=%d shed=%d", admitted.Load(), shedTotal.Load())
	}
}

func TestSnapshotShape(t *testing.T) {
	c := New(Config{Slots: 2, QueueDepth: 4})
	d := mustAdmit(t, c, "")
	st := c.Stats()
	if st.Slots != 2 || st.QueueDepth != 4 || st.InFlight != 1 || st.Queued != 0 {
		t.Fatalf("snapshot %+v", st)
	}
	ts, ok := st.Tenants[DefaultTenant]
	if !ok {
		t.Fatalf("no default tenant in %+v", st.Tenants)
	}
	if ts.Admitted != 1 || ts.InFlight != 1 {
		t.Fatalf("tenant stats %+v", ts)
	}
	d.Release()
	if got := c.Stats().Tenants[DefaultTenant].InFlight; got != 0 {
		t.Fatalf("tenant in-flight after release %d", got)
	}
}

func TestNewValidation(t *testing.T) {
	for _, cfg := range []Config{{Slots: 0}, {Slots: -1}, {Slots: 1, QueueDepth: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v accepted", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestPressureSignal(t *testing.T) {
	c := New(Config{Slots: 1, QueueDepth: 4})
	freeHold := occupy(t, c, "hold", 1)
	results := make(chan *Decision, 3)
	for i := 0; i < 3; i++ {
		go func() {
			d, err := c.Admit(context.Background(), "t")
			if err != nil {
				t.Errorf("admit: %v", err)
			}
			results <- d
		}()
	}
	waitUntil(t, func() bool { return c.Queued() == 3 })
	if p := c.Stats().Pressure; p != 0.75 {
		t.Fatalf("pressure %v, want 0.75", p)
	}
	freeHold()
	for i := 0; i < 3; i++ {
		d := <-results
		if !d.Queued || d.QueueWait < 0 {
			t.Fatalf("queued decision %+v", d)
		}
		d.Release()
	}
	if p := c.Stats().Pressure; p != 0 {
		t.Fatalf("idle pressure %v", p)
	}
}

// waitUntil polls cond to avoid sleeping for fixed durations in tests.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestShedErrorMessage pins the error string format clients see in logs.
func TestShedErrorMessage(t *testing.T) {
	e := &ShedError{Tenant: "t", Reason: ReasonQueueFull, RetryAfter: time.Second}
	want := `admission: tenant "t" shed (queue-full), retry after 1s`
	if e.Error() != want {
		t.Fatalf("error %q, want %q", e.Error(), want)
	}
	if fmt.Sprintf("%v", e) != want {
		t.Fatal("ShedError must format identically via fmt verbs")
	}
}
