package admission

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a manually-advanced clock for deterministic rate tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

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

func TestRateLimitShedsWithRetryAfter(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{
		Slots: 8, QueueDepth: 8,
		Tenants: map[string]Quota{"metered": {RatePerSec: 2, Burst: 3}},
		Now:     clk.now,
	})
	for i := 0; i < 3; i++ {
		mustAdmit(t, c, "metered").Release()
	}
	_, err := c.Admit(context.Background(), "metered")
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ReasonRate {
		t.Fatalf("4th burst request: %v", err)
	}
	// Bucket is empty; one token refills in 1/2 s.
	if shed.RetryAfter < 400*time.Millisecond || shed.RetryAfter > 600*time.Millisecond {
		t.Fatalf("retry-after %v, want ~500ms", shed.RetryAfter)
	}
	// An unmetered tenant is unaffected.
	mustAdmit(t, c, "other").Release()
	// After the advertised wait the request is admitted.
	clk.advance(shed.RetryAfter)
	mustAdmit(t, c, "metered").Release()
	// Idle time refills to burst, no further: 10s >> 3 tokens / 2 per sec.
	clk.advance(10 * time.Second)
	for i := 0; i < 3; i++ {
		mustAdmit(t, c, "metered").Release()
	}
	if _, err := c.Admit(context.Background(), "metered"); !errors.As(err, &shed) {
		t.Fatalf("bucket refilled past burst: %v", err)
	}
	st := c.Stats().Tenants["metered"]
	if st.ShedRate != 2 || st.Admitted != 7 {
		t.Fatalf("metered stats %+v, want 2 rate sheds, 7 admitted", st)
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

func TestQueueFullShedsAndRefundsToken(t *testing.T) {
	c := New(Config{
		Slots: 1, QueueDepth: 1,
		Tenants: map[string]Quota{"m": {RatePerSec: 1, Burst: 10}},
	})
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

	_, err := c.Admit(context.Background(), "m")
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
	// The shed consumed no net token: burst 10, the queued waiter spent 1
	// and the shed's token was refunded → 9 immediate admissions remain
	// (refill over the test's few milliseconds adds < 0.01 token at 1/s).
	for i := 0; i < 9; i++ {
		mustAdmit(t, c, "m").Release()
	}
	if _, err := c.Admit(context.Background(), "m"); !errors.As(err, &shed) || shed.Reason != ReasonRate {
		t.Fatalf("10th request: %v (queue shed must refund its rate token)", err)
	}
}

func TestTenantQueueCap(t *testing.T) {
	c := New(Config{
		Slots: 1, QueueDepth: 8,
		Tenants: map[string]Quota{"capped": {MaxQueue: 1}},
	})
	freeHold := occupy(t, c, "hold", 1)
	defer freeHold()

	done := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		d, err := c.Admit(ctx, "capped")
		if d != nil {
			d.Release()
		}
		done <- err
	}()
	waitUntil(t, func() bool { return c.Queued() == 1 })

	_, err := c.Admit(context.Background(), "capped")
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ReasonTenantQueue {
		t.Fatalf("capped tenant second waiter: %v", err)
	}
	// Other tenants still queue freely.
	go func() { _, _ = c.Admit(ctx, "free") }()
	waitUntil(t, func() bool { return c.Queued() == 2 })
	cancel()
	<-done
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

// TestWeightedFairDispatch pins the WFQ property: with every slot contended,
// a weight-3 tenant drains ~3 queued requests for each weight-1 dispatch.
func TestWeightedFairDispatch(t *testing.T) {
	c := New(Config{
		Slots: 1, QueueDepth: 64,
		Tenants: map[string]Quota{
			"heavy": {Weight: 3},
			"light": {Weight: 1},
		},
	})
	freeHold := occupy(t, c, "hold", 1)

	const perTenant = 12
	var order []string
	var omu sync.Mutex
	var wg sync.WaitGroup
	for _, tenant := range []string{"heavy", "light"} {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(tn string) {
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
			}(tenant)
		}
	}
	waitUntil(t, func() bool { return c.Queued() == 2*perTenant })
	freeHold()
	wg.Wait()

	// While both tenants have backlog (the first 16 dispatches — heavy's 12
	// drain within them at a 3:1 share), every window of 8 consecutive
	// dispatches gives heavy ~6 and light ~2. The remaining dispatches are
	// light's leftovers and carry no fairness signal.
	for start := 0; start+8 <= 16; start += 8 {
		heavy := 0
		for _, tn := range order[start : start+8] {
			if tn == "heavy" {
				heavy++
			}
		}
		if heavy < 5 || heavy > 7 {
			t.Fatalf("window %d: heavy got %d of 8 dispatches, want ~6 (order %v)", start, heavy, order)
		}
	}
	// Exhaustion check: both drained completely.
	st := c.Stats()
	if st.Tenants["heavy"].Admitted != perTenant || st.Tenants["light"].Admitted != perTenant {
		t.Fatalf("admitted %+v", st.Tenants)
	}
	if st.Tenants["heavy"].QueueWaitP99MS == 0 {
		t.Fatal("queued dispatches recorded no wait percentile")
	}
}

// TestConcurrencyCapHoldsSlotForOthers: a tenant at MaxConcurrent cannot
// take a free slot even at the head of the queue; an eligible tenant behind
// it is dispatched instead.
func TestConcurrencyCap(t *testing.T) {
	c := New(Config{
		Slots: 2, QueueDepth: 8,
		Tenants: map[string]Quota{"capped": {MaxConcurrent: 1}},
	})
	dCap := mustAdmit(t, c, "capped") // capped tenant at its cap
	// Advance "other"'s virtual time past "capped"'s so the capped waiter
	// heads the queue below — the dispatch must skip past it.
	for i := 0; i < 3; i++ {
		mustAdmit(t, c, "other").Release()
	}
	freeHold := occupy(t, c, "hold", 1)

	capDone := make(chan *Decision, 1)
	go func() {
		d, err := c.Admit(context.Background(), "capped")
		if err != nil {
			t.Errorf("capped: %v", err)
		}
		capDone <- d
	}()
	waitUntil(t, func() bool { return c.Queued() == 1 })

	otherDone := make(chan *Decision, 1)
	go func() {
		d, err := c.Admit(context.Background(), "other")
		if err != nil {
			t.Errorf("other: %v", err)
		}
		otherDone <- d
	}()
	waitUntil(t, func() bool { return c.Queued() == 2 })

	// Free one generic slot: "capped" heads the queue but is at its cap, so
	// "other" must be dispatched past it.
	freeHold()
	dOther := <-otherDone
	select {
	case <-capDone:
		t.Fatal("capped tenant dispatched past its concurrency cap")
	case <-time.After(20 * time.Millisecond):
	}
	// Releasing the capped tenant's original slot unblocks its waiter.
	dCap.Release()
	(<-capDone).Release()
	dOther.Release()
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
	c := New(Config{
		Slots: slots, QueueDepth: depth,
		Tenants: map[string]Quota{
			"a": {Weight: 2, MaxConcurrent: 3},
			"b": {MaxQueue: 4},
		},
	})
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
		stShed += ts.ShedRate + ts.ShedQueue
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
	clk := newFakeClock()
	c := New(Config{
		Slots: 2, QueueDepth: 4,
		Default: Quota{RatePerSec: 100},
		Now:     clk.now,
	})
	d := mustAdmit(t, c, "")
	st := c.Stats()
	if st.Slots != 2 || st.QueueDepth != 4 || st.InFlight != 1 || st.Queued != 0 {
		t.Fatalf("snapshot %+v", st)
	}
	ts, ok := st.Tenants[DefaultTenant]
	if !ok {
		t.Fatalf("no default tenant in %+v", st.Tenants)
	}
	if ts.Admitted != 1 || ts.InFlight != 1 || ts.Weight != 1 {
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
	e := &ShedError{Tenant: "t", Reason: ReasonRate, RetryAfter: time.Second}
	want := `admission: tenant "t" shed (rate), retry after 1s`
	if e.Error() != want {
		t.Fatalf("error %q, want %q", e.Error(), want)
	}
	if fmt.Sprintf("%v", e) != want {
		t.Fatal("ShedError must format identically via fmt verbs")
	}
}
