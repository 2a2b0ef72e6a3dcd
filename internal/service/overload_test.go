package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/floorplan"
	"repro/internal/trace"
	"repro/internal/tstore"
)

// waitCond polls cond until it holds or the test deadline expires.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func postJSONTenant(t *testing.T, url, tenant string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func steadyReq() SteadyRequest {
	return SteadyRequest{
		Model: ModelSpec{Floorplan: "ev6", Package: "air-sink"},
		Power: map[string]float64{"IntReg": 2},
	}
}

// TestOversizedTenantRejected: a tenant name longer than maxTenantName is a
// 400.
func TestOversizedTenantRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	long := make([]byte, maxTenantName+1)
	for i := range long {
		long[i] = 'a'
	}
	resp, raw := postJSONTenant(t, ts.URL+"/v1/steady", string(long), steadyReq())
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, raw)
	}
}

// TestTwoTenantOverload is the overload acceptance scenario: a heavy tenant
// bursting far past the queue bound is shed with 429 + Retry-After while a
// light tenant keeps succeeding with bounded queue waits.
func TestTwoTenantOverload(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 2, QueueDepth: 8})
	// Prime the model cache so overloaded requests measure queuing, not
	// compiles.
	if resp, raw := postJSON(t, ts.URL+"/v1/steady", steadyReq()); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup: status %d: %s", resp.StatusCode, raw)
	}

	hold := occupySlots(t, srv, "hold", 2)
	released := false
	defer func() {
		if !released {
			hold()
		}
	}()

	type outcome struct {
		tenant string
		status int
		retry  string
	}
	results := make(chan outcome, 64)
	var wg sync.WaitGroup
	post := func(tenant string, req SteadyRequest) {
		defer wg.Done()
		raw, err := json.Marshal(req)
		if err != nil {
			results <- outcome{tenant: tenant, status: -1}
			return
		}
		hr, err := http.NewRequest("POST", ts.URL+"/v1/steady", bytes.NewReader(raw))
		if err != nil {
			results <- outcome{tenant: tenant, status: -1}
			return
		}
		hr.Header.Set("Content-Type", "application/json")
		hr.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			results <- outcome{tenant: tenant, status: -1}
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		results <- outcome{tenant, resp.StatusCode, resp.Header.Get("Retry-After")}
	}

	light := steadyReq()
	heavy := steadyReq()

	// First light wave queues while the slots are held, so every one of them
	// is granted from the queue.
	wg.Add(4)
	for i := 0; i < 4; i++ {
		go post("light", light)
	}
	waitCond(t, "light wave queued", func() bool {
		return srv.admission.Stats().Tenants["light"].Queued == 4
	})

	// Heavy burst: 30 concurrent requests against the 4 queue places the
	// light wave left — the rest shed immediately.
	wg.Add(30)
	for i := 0; i < 30; i++ {
		go post("heavy", heavy)
	}
	waitCond(t, "heavy burst resolved", func() bool {
		ten := srv.admission.Stats().Tenants["heavy"]
		return ten.ShedQueue+int64(ten.Queued) == 30
	})

	// Release the slots and ride out the drain with a second light wave
	// (bounded concurrency so the light tenant never trips the global queue
	// bound: ≤4 light waiting + ≤4 heavy queued ≤ QueueDepth).
	hold()
	released = true
	// The first light wave shares the full queue with the heavy backlog;
	// let it drain before the second wave arrives, or the second wave races
	// the dequeue and is shed by the full queue.
	waitCond(t, "first light wave dequeued", func() bool {
		return srv.admission.Stats().Tenants["light"].Queued == 0
	})
	wg.Add(4)
	for i := 0; i < 4; i++ {
		go func() {
			defer wg.Done()
			for j := 0; j < 2; j++ {
				wg.Add(1)
				post("light", light)
			}
		}()
	}
	wg.Wait()
	close(results)

	var lightOK, lightBad, heavyOK, heavySheds int
	for o := range results {
		switch o.tenant {
		case "light":
			if o.status == http.StatusOK {
				lightOK++
			} else {
				lightBad++
				t.Errorf("light request: status %d", o.status)
			}
		case "heavy":
			switch o.status {
			case http.StatusOK:
				heavyOK++
			case http.StatusTooManyRequests:
				heavySheds++
				if o.retry == "" {
					t.Error("heavy 429 missing Retry-After header")
				}
			default:
				t.Errorf("heavy request: status %d", o.status)
			}
		}
	}
	if lightOK != 12 || lightBad != 0 {
		t.Fatalf("light tenant: %d ok, %d failed, want 12/0", lightOK, lightBad)
	}
	if heavySheds == 0 || heavyOK+heavySheds != 30 {
		t.Fatalf("heavy tenant: %d ok + %d shed, want 30 with sheds > 0", heavyOK, heavySheds)
	}

	st := srv.Stats()
	lt, ht := st.Admission.Tenants["light"], st.Admission.Tenants["heavy"]
	if lt.Admitted != 12 || lt.ShedQueue != 0 {
		t.Fatalf("light tenant stats: %+v", lt)
	}
	if ht.Admitted != int64(heavyOK) || ht.ShedQueue != int64(heavySheds) {
		t.Fatalf("heavy tenant stats %+v vs observed ok=%d shed=%d", ht, heavyOK, heavySheds)
	}
	if st.RejectedQueueFull != int64(heavySheds) {
		t.Fatalf("rejected_queue_full = %d, want %d", st.RejectedQueueFull, heavySheds)
	}
	// The light tenant's queue waits stayed bounded (well under the test's
	// own 5 s patience).
	if lt.QueueWaitP99MS >= 5000 {
		t.Fatalf("light p99 queue wait %.1f ms", lt.QueueWaitP99MS)
	}
}

// TestDeadlineWhileQueued: requests whose deadline expires while they wait
// for a slot answer 504 on the query and scenario-stream endpoints too.
func TestDeadlineWhileQueued(t *testing.T) {
	st, err := tstore.Open(t.TempDir(), tstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv, ts := newTestServer(t, Config{MaxConcurrent: 1, Store: st})

	release := occupySlots(t, srv, "hold", 1)
	defer release()

	resp, raw := getJSON(t, ts.URL+"/v1/query?series=x&timeout_ms=50")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("query: status %d, want 504: %s", resp.StatusCode, raw)
	}
	resp, raw = postJSON(t, ts.URL+"/v1/scenario/stream", ScenarioRequest{
		Spec: json.RawMessage(sweepSpecJSON), TimeoutMS: 50,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("scenario stream: status %d, want 504: %s", resp.StatusCode, raw)
	}
	if n := srv.Stats().DeadlineExceeded; n != 2 {
		t.Fatalf("deadline_exceeded = %d, want 2", n)
	}
}

// TestDrainShedsAndEvicts: BeginDrain evicts queued waiters with 503 +
// Retry-After, sheds every subsequent request the same way, flips /readyz
// to 503 while /healthz stays pure liveness (200), and leaves in-flight
// work untouched.
func TestDrainShedsAndEvicts(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 4})

	release := occupySlots(t, srv, "hold", 1)
	queued := make(chan outcomeHTTP, 1)
	go func() {
		queued <- doSteadyRaw(ts.URL, steadyReq())
	}()
	waitCond(t, "request queued", func() bool { return srv.admission.Queued() == 1 })

	srv.BeginDrain()
	if !srv.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
	ev := <-queued
	if ev.status != http.StatusServiceUnavailable || ev.retry == "" {
		t.Fatalf("evicted waiter: status %d retry %q, want 503 with Retry-After", ev.status, ev.retry)
	}
	nw := doSteadyRaw(ts.URL, steadyReq())
	if nw.status != http.StatusServiceUnavailable || nw.retry == "" {
		t.Fatalf("post-drain request: status %d retry %q, want 503 with Retry-After", nw.status, nw.retry)
	}
	// Liveness stays green while draining — the process is healthy, just not
	// accepting work; restart orchestrators must not kill it.
	resp, raw := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: status %d", resp.StatusCode)
	}
	var hb map[string]string
	decodeInto(t, raw, &hb)
	if hb["status"] != "ok" {
		t.Fatalf("healthz status %q, want ok (liveness is drain-agnostic)", hb["status"])
	}
	// Readiness goes 503 + Retry-After so fleets/load balancers stop routing.
	resp, raw = getJSON(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("readyz while draining: missing Retry-After")
	}
	var rb map[string]string
	decodeInto(t, raw, &rb)
	if rb["status"] != "draining" {
		t.Fatalf("readyz status %q, want draining", rb["status"])
	}
	// The in-flight slot holder finishes normally.
	release()
	if got := srv.admission.InFlight(); got != 0 {
		t.Fatalf("in-flight after release = %d", got)
	}
}

type outcomeHTTP struct {
	status int
	retry  string
	body   []byte
}

func doSteadyRaw(url string, req SteadyRequest) outcomeHTTP {
	raw, err := json.Marshal(req)
	if err != nil {
		return outcomeHTTP{status: -1}
	}
	resp, err := http.Post(url+"/v1/steady", "application/json", bytes.NewReader(raw))
	if err != nil {
		return outcomeHTTP{status: -1}
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return outcomeHTTP{resp.StatusCode, resp.Header.Get("Retry-After"), buf.Bytes()}
}

// TestServeGracefulShutdown: cancelling Serve's context drains — the
// in-flight request completes with its full result and Serve returns nil.
// The request is a streamed transient whose body the test finishes only
// once the drain has begun, so it is in flight across the shutdown by
// construction.
func TestServeGracefulShutdown(t *testing.T) {
	srv := New(Config{MaxConcurrent: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ctx, addr) }()
	waitCond(t, "server listening", func() bool {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})

	body, finish := io.Pipe()
	defer finish.Close()
	inflight := make(chan outcomeHTTP, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/v1/transient?floorplan=ev6&package=air-sink", "text/plain", body)
		if err != nil {
			inflight <- outcomeHTTP{status: -1}
			return
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		inflight <- outcomeHTTP{status: resp.StatusCode, body: buf.Bytes()}
	}()
	// The header and first row admit the replay, which then waits for the
	// next row: the request holds its slot until the body finishes.
	if _, err := io.WriteString(finish, "# interval 1e-3 s\nIntReg\n3\n"); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "transient in flight", func() bool { return srv.admission.InFlight() >= 1 })

	cancel()
	waitCond(t, "drain begun", srv.Draining)
	if _, err := io.WriteString(finish, "3\n0\n0\n"); err != nil {
		t.Fatal(err)
	}
	finish.Close()
	if err := <-errc; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
	res := <-inflight
	if res.status != http.StatusOK {
		t.Fatalf("in-flight transient: status %d: %s", res.status, res.body)
	}
	var out TransientResponse
	decodeInto(t, res.body, &out)
	if out.Steps != 4 || len(out.Points) != 5 {
		t.Fatalf("in-flight transient finished with %d steps and %d points, want 4 and 5", out.Steps, len(out.Points))
	}
	if !srv.Draining() {
		t.Fatal("server not draining after shutdown")
	}
}

// TestPersistDegradedRecovery: a disk fault during a transient persist
// degrades the request to persist_pending instead of failing it, the
// background retrier recovers once the disk heals, and the acknowledged rows
// become queryable.
func TestPersistDegradedRecovery(t *testing.T) {
	ffs := faultfs.New(tstore.OSFS(), 1)
	st, err := tstore.Open(t.TempDir(), tstore.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv, ts := newTestServer(t, Config{Store: st})

	ffs.SetDiskFull(true)
	tr := testTrace(t)
	resp, raw := postJSON(t, ts.URL+"/v1/transient", TransientRequest{
		Model:   ModelSpec{Floorplan: "ev6", Package: "air-sink"},
		Trace:   traceSpec(tr),
		Persist: "runs/degraded",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("transient with failing disk: status %d: %s", resp.StatusCode, raw)
	}
	var out TransientResponse
	decodeInto(t, raw, &out)
	if !out.PersistPending || out.Persist != "runs/degraded" || out.PersistedRows != 0 {
		t.Fatalf("want persist_pending for runs/degraded with 0 durable rows, got %+v",
			struct {
				P string
				R int64
				B bool
			}{out.Persist, out.PersistedRows, out.PersistPending})
	}
	if d := srv.Stats().Degrade; d.PersistDeferred != 1 {
		t.Fatalf("persist_deferred = %d, want 1", d.PersistDeferred)
	}

	// Disk heals; the retrier flushes the staged rows in the background.
	ffs.SetDiskFull(false)
	waitCond(t, "retrier recovery", func() bool {
		d := srv.Stats().Degrade
		return d.PersistRecovered >= 1 && !d.PersistPending
	})
	block := tr.Names[0]
	resp, raw = getJSON(t, ts.URL+"/v1/query?series=runs/degraded/"+block)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after recovery: status %d: %s", resp.StatusCode, raw)
	}
	var q QueryResponse
	decodeInto(t, raw, &q)
	if len(q.Rows) == 0 {
		t.Fatal("no rows recovered after the disk healed")
	}
}

// TestPersistPendingLongRunOnFullDisk: a persisted run longer than
// FlushRows on a full disk stages every row, not only those before the
// first failed flush. The failed flushes surface once, as persist_pending,
// and after the disk heals the retrier makes every row of every block
// queryable.
func TestPersistPendingLongRunOnFullDisk(t *testing.T) {
	ffs := faultfs.New(tstore.OSFS(), 1)
	st, err := tstore.Open(t.TempDir(), tstore.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv, ts := newTestServer(t, Config{Store: st})

	// 5000 steps: more than the default FlushRows of 4096.
	tr, err := trace.PulseTrain(floorplan.EV6().Names(), "IntReg", 3.0, 25e-3, 25e-3, 1e-4, 10)
	if err != nil {
		t.Fatal(err)
	}
	ffs.SetDiskFull(true)
	resp, raw := postJSON(t, ts.URL+"/v1/transient", TransientRequest{
		Model:     ModelSpec{Floorplan: "ev6", Package: "air-sink"},
		Trace:     traceSpec(tr),
		MaxPoints: 1,
		Persist:   "runs/long",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("transient with full disk: status %d: %s", resp.StatusCode, raw)
	}
	var out TransientResponse
	decodeInto(t, raw, &out)
	if !out.PersistPending || out.PersistedRows != 0 {
		t.Fatalf("persist_pending %v, persisted_rows %d; want pending with 0 durable rows", out.PersistPending, out.PersistedRows)
	}

	ffs.SetDiskFull(false)
	waitCond(t, "retrier recovery", func() bool {
		d := srv.Stats().Degrade
		return d.PersistRecovered >= 1 && !d.PersistPending
	})
	want := len(tr.Rows) + 1 // the initial state plus one point per step
	for _, block := range tr.Names {
		res, err := st.Query("runs/long/"+block, -1<<62, 1<<62, 0)
		if err != nil {
			t.Fatalf("block %s: %v", block, err)
		}
		if len(res.Rows) != want {
			t.Fatalf("block %s: %d rows queryable after the disk healed, want %d", block, len(res.Rows), want)
		}
	}
}

// TestScenarioServingValidation: the scenario endpoints refuse a serving
// hint. The field no longer exists, so any value is an unknown field and
// answers 400 instead of silently running the full model.
func TestScenarioServingValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/scenario", map[string]any{
		"spec": json.RawMessage(sweepSpecJSON), "serving": "bogus",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, raw)
	}
}
