package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/floorplan"
	"repro/internal/trace"
	"repro/internal/tstore"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
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

func decodeInto(t *testing.T, raw []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
}

func TestSteadyEndpointAndCache(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	req := SteadyRequest{
		Model: ModelSpec{Floorplan: "ev6", Package: "oil-silicon", Rconv: 1.0},
		Power: map[string]float64{"IntReg": 2.0, "Dcache": 1.2},
	}
	resp, raw := postJSON(t, ts.URL+"/v1/steady", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out SteadyResponse
	decodeInto(t, raw, &out)
	if out.Cache != "miss" {
		t.Fatalf("first request cache = %q", out.Cache)
	}
	if out.BlockC["IntReg"] < 46 || out.BlockC["IntReg"] > 400 {
		t.Fatalf("implausible IntReg temperature %.1f °C", out.BlockC["IntReg"])
	}
	if out.HottestBlock != "IntReg" {
		t.Fatalf("hottest = %q, want IntReg", out.HottestBlock)
	}

	resp, raw = postJSON(t, ts.URL+"/v1/steady", req)
	var warm SteadyResponse
	decodeInto(t, raw, &warm)
	if resp.StatusCode != http.StatusOK || warm.Cache != "hit" {
		t.Fatalf("second request: status %d cache %q", resp.StatusCode, warm.Cache)
	}
	// The cache-hit solve must agree with the cold one.
	for name, v := range out.BlockC {
		if d := math.Abs(v - warm.BlockC[name]); d > 1e-9 {
			t.Fatalf("block %s: cold %.12g vs warm %.12g", name, v, warm.BlockC[name])
		}
	}
	st := srv.Stats()
	if st.Cache.Compiles != 1 || st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("cache stats: %+v", st.Cache)
	}
	if st.SolveLatency.Total < 2 {
		t.Fatalf("latency samples %d", st.SolveLatency.Total)
	}
}

// testTrace builds a small pulse trace on the EV6.
func testTrace(t *testing.T) *trace.PowerTrace {
	t.Helper()
	tr, err := trace.PulseTrain(floorplan.EV6().Names(), "IntReg", 3.0, 4e-3, 4e-3, 1e-3, 2)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func traceSpec(tr *trace.PowerTrace) *TraceSpec {
	rows := make([][]float64, len(tr.Rows))
	for i, r := range tr.Rows {
		rows[i] = append([]float64(nil), r...)
	}
	return &TraceSpec{Names: tr.Names, Interval: tr.Interval, Rows: rows}
}

// TestTransientStreamedMatchesInlineBitIdentical: a trace streamed as a
// ptrace body replays bit-identically to the same trace sent inline. Every
// other row carries a full-precision power, so the body mixes short
// decimals and 17-digit values.
func TestTransientStreamedMatchesInlineBitIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := testTrace(t)
	for i, row := range tr.Rows {
		if i%2 == 1 {
			row[i%len(row)] = 1 / float64(i+2)
		}
	}

	// Inline JSON request.
	resp, raw := postJSON(t, ts.URL+"/v1/transient", TransientRequest{
		Model: ModelSpec{Floorplan: "ev6", Package: "air-sink"},
		Trace: traceSpec(tr),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline: status %d: %s", resp.StatusCode, raw)
	}
	var inline TransientResponse
	decodeInto(t, raw, &inline)

	// The same trace streamed as a raw ptrace body.
	var body bytes.Buffer
	if err := tr.Write(&body); err != nil {
		t.Fatal(err)
	}
	streamResp, err := http.Post(
		ts.URL+"/v1/transient?floorplan=ev6&package=air-sink",
		"text/plain", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(streamResp.Body)
	if streamResp.StatusCode != http.StatusOK {
		t.Fatalf("streamed: status %d: %s", streamResp.StatusCode, buf.Bytes())
	}
	var streamed TransientResponse
	decodeInto(t, buf.Bytes(), &streamed)

	if inline.Steps != streamed.Steps {
		t.Fatalf("steps: inline %d vs streamed %d", inline.Steps, streamed.Steps)
	}
	for name, v := range inline.FinalC {
		if streamed.FinalC[name] != v {
			t.Fatalf("block %s final: inline %.17g vs streamed %.17g (not bit-identical)",
				name, v, streamed.FinalC[name])
		}
	}
	for name, v := range inline.PeakC {
		if streamed.PeakC[name] != v {
			t.Fatalf("block %s peak: inline %.17g vs streamed %.17g", name, v, streamed.PeakC[name])
		}
	}
	if len(inline.Points) != len(streamed.Points) {
		t.Fatalf("points: %d vs %d", len(inline.Points), len(streamed.Points))
	}
	for i := range inline.Points {
		for b := range inline.Points[i].BlockC {
			if inline.Points[i].BlockC[b] != streamed.Points[i].BlockC[b] {
				t.Fatalf("point %d block %d differs", i, b)
			}
		}
	}
}

func TestTransientNDJSONStreamAndMaxPoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := testTrace(t)
	var body bytes.Buffer
	hdr, _ := json.Marshal(map[string]any{"names": tr.Names, "interval": tr.Interval})
	body.Write(hdr)
	body.WriteByte('\n')
	for _, row := range tr.Rows {
		raw, _ := json.Marshal(row)
		body.Write(raw)
		body.WriteByte('\n')
	}
	resp, err := http.Post(
		ts.URL+"/v1/transient?floorplan=ev6&package=air-sink&max_points=4",
		"application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, buf.Bytes())
	}
	var out TransientResponse
	decodeInto(t, buf.Bytes(), &out)
	if len(out.Points) != 4 {
		t.Fatalf("max_points ignored: %d points", len(out.Points))
	}
	if out.Steps != len(tr.Rows) {
		t.Fatalf("steps %d, want %d", out.Steps, len(tr.Rows))
	}
}

// TestTransientMaxPointsOne: max_points=1 must return just the final point
// (regression: the stride computation divided by maxPoints-1 and indexed
// with int(NaN)).
func TestTransientMaxPointsOne(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := testTrace(t)
	resp, raw := postJSON(t, ts.URL+"/v1/transient", TransientRequest{
		Model:     ModelSpec{Floorplan: "ev6", Package: "air-sink"},
		Trace:     traceSpec(tr),
		MaxPoints: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out TransientResponse
	decodeInto(t, raw, &out)
	if len(out.Points) != 1 {
		t.Fatalf("%d points, want 1", len(out.Points))
	}
	final := out.FinalC[out.Blocks[0]]
	if out.Points[0].BlockC[0] != final {
		t.Fatalf("single point %.6f is not the final state %.6f", out.Points[0].BlockC[0], final)
	}
}

func TestTransientWarmStart(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := testTrace(t)
	resp, raw := postJSON(t, ts.URL+"/v1/transient", TransientRequest{
		Model:     ModelSpec{Floorplan: "ev6", Package: "air-sink"},
		Trace:     traceSpec(tr),
		WarmStart: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out TransientResponse
	decodeInto(t, raw, &out)
	// Warm-started replay begins at the average-power steady state, so the
	// first sampled temperature is well above ambient.
	if out.Points[0].BlockC[floorplan.EV6().Index("IntReg")] < 46 {
		t.Fatalf("warm start ignored: initial IntReg %.1f °C", out.Points[0].BlockC[floorplan.EV6().Index("IntReg")])
	}
}

func TestSweepMixedScenarios(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := testTrace(t)
	req := SweepRequest{Scenarios: []SweepScenario{
		{Model: ModelSpec{Floorplan: "ev6", Package: "air-sink"}, Power: map[string]float64{"IntReg": 2}},
		{Model: ModelSpec{Floorplan: "ev6", Package: "oil-silicon", Rconv: 1.0}, Trace: traceSpec(tr)},
		{Model: ModelSpec{Floorplan: "nope"}, Power: map[string]float64{"IntReg": 2}},
		{Model: ModelSpec{Floorplan: "ev6"}}, // neither power nor trace
	}}
	resp, raw := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out SweepResponse
	decodeInto(t, raw, &out)
	if len(out.Results) != 4 {
		t.Fatalf("%d results", len(out.Results))
	}
	if out.Results[0].Error != "" || out.Results[0].BlockC["IntReg"] < 46 {
		t.Fatalf("steady scenario: %+v", out.Results[0])
	}
	if out.Results[1].Error != "" || len(out.Results[1].PeakC) == 0 {
		t.Fatalf("trace scenario: %+v", out.Results[1])
	}
	if out.Results[2].Error == "" || out.Results[3].Error == "" {
		t.Fatalf("bad scenarios not reported: %+v %+v", out.Results[2], out.Results[3])
	}
}

func TestInvertRecoversPower(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	model := ModelSpec{Floorplan: "ev6", Package: "oil-silicon", Rconv: 1.0}
	injected := map[string]float64{"IntReg": 2.0, "Dcache": 1.0, "Icache": 3.0}

	_, raw := postJSON(t, ts.URL+"/v1/steady", SteadyRequest{Model: model, Power: injected})
	var steady SteadyResponse
	decodeInto(t, raw, &steady)

	resp, raw := postJSON(t, ts.URL+"/v1/invert", InvertRequest{
		Model: model, ObservedC: steady.BlockC, Lambda: 1e-9,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out InvertResponse
	decodeInto(t, raw, &out)
	for _, name := range floorplan.EV6().Names() {
		want := injected[name]
		if d := math.Abs(out.PowerW[name] - want); d > 1e-3 {
			t.Fatalf("block %s: recovered %.4f W, injected %.4f W", name, out.PowerW[name], want)
		}
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		path string
		body string
	}{
		{"/v1/steady", `{"model":{"floorplan":"nope"},"power":{"a":1}}`},
		{"/v1/steady", `{"model":{"floorplan":"ev6"},"power":{"NotABlock":1}}`},
		{"/v1/steady", `{"model":{"floorplan":"ev6"},"power":{}}`},
		{"/v1/steady", `{"unknown_field":1}`},
		{"/v1/steady", `not json`},
		{"/v1/transient", `{"model":{"floorplan":"ev6"}}`},
		{"/v1/transient", `{"model":{"floorplan":"ev6"},"trace":{"names":["IntReg"],"interval":0.001,"rows":[]}}`},
		{"/v1/transient", `{"model":{"floorplan":"ev6"},"trace":{"names":["NotABlock"],"interval":0.001,"rows":[[1]]}}`},
		{"/v1/transient", `{"model":{"floorplan":"ev6"},"trace":{"names":["IntReg"],"interval":-1,"rows":[[1]]}}`},
		{"/v1/sweep", `{"scenarios":[]}`},
		{"/v1/invert", `{"model":{"floorplan":"ev6"},"observed_c":{}}`},
		{"/v1/invert", `{"model":{"floorplan":"ev6"},"observed_c":{"NotABlock":50}}`},
		{"/v1/invert", `{"model":{"floorplan":"ev6"},"observed_c":{"IntReg":50}}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %s: status %d, want 400", tc.path, tc.body, resp.StatusCode)
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

// TestSteadyBodyOverLimit: a JSON body one byte over MaxBodyBytes answers
// 413 before it is read or admitted. A body of undeclared length answers
// 413 once decoding reads past the cap.
func TestSteadyBodyOverLimit(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	req, err := http.NewRequest("POST", ts.URL+"/v1/steady", io.LimitReader(spaces{}, MaxBodyBytes+1))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = MaxBodyBytes + 1
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d: %s, want 413", resp.StatusCode, raw)
	}
	var e errorResponse
	decodeInto(t, raw, &e)
	if want := fmt.Sprintf("request body exceeds %d bytes", MaxBodyBytes); e.Error != want {
		t.Fatalf("error %q, want %q", e.Error, want)
	}
	if st := srv.Stats(); st.Admission.Tenants["default"].Admitted != 0 || st.BadRequests != 0 {
		t.Fatalf("an oversized body was admitted or counted as a 400: %+v", st)
	}

	r := httptest.NewRequest("POST", "/v1/steady", strings.NewReader(`{"model":{"floorplan":"ev6"}}`))
	r.Body = http.MaxBytesReader(nil, r.Body, 8)
	if err := decodeJSON(r, new(SteadyRequest)); !errors.Is(err, errTooLarge) {
		t.Fatalf("decode past the cap: %v, want %v", err, errTooLarge)
	}
}

// TestTransientPersistRejectedBeforeAdmission: a transient whose persist
// run name cannot be written answers 400 before admission, so it compiles
// no model and steps no replay — streamed to a server without a store, or
// inline with an invalid run name.
func TestTransientPersistRejectedBeforeAdmission(t *testing.T) {
	tr, err := trace.PulseTrain(floorplan.EV6().Names(), "IntReg", 3.0, 25e-3, 25e-3, 1e-4, 10) // 5000 rows
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if err := tr.Write(&stream); err != nil {
		t.Fatal(err)
	}
	bare, bareTS := newTestServer(t, Config{})
	resp, err := http.Post(bareTS.URL+"/v1/transient?floorplan=ev6&package=air-sink&persist=run1", "text/plain", &stream)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("streamed persist without a store: status %d: %s, want 400", resp.StatusCode, raw)
	}

	st, err := tstore.Open(t.TempDir(), tstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	stored, storedTS := newTestServer(t, Config{Store: st})
	resp, raw = postJSON(t, storedTS.URL+"/v1/transient", TransientRequest{
		Model:   ModelSpec{Floorplan: "ev6", Package: "air-sink"},
		Trace:   traceSpec(tr),
		Persist: "has space",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid run name: status %d: %s, want 400", resp.StatusCode, raw)
	}

	for name, srv := range map[string]*Server{"no store": bare, "invalid run name": stored} {
		s := srv.Stats()
		if s.Cache.Misses != 0 || s.Solver.DirectSteps != 0 {
			t.Errorf("%s: rejected persist compiled %d models and stepped %d rows, want 0 and 0",
				name, s.Cache.Misses, s.Solver.DirectSteps)
		}
	}
}

// occupySlots admits n held requests so the test controls slot availability;
// the returned func releases them.
func occupySlots(t *testing.T, srv *Server, tenant string, n int) func() {
	t.Helper()
	decs := make([]interface{ Release() }, 0, n)
	for i := 0; i < n; i++ {
		dec, err := srv.admission.Admit(context.Background(), tenant)
		if err != nil {
			t.Fatalf("occupy slot %d: %v", i, err)
		}
		decs = append(decs, dec)
	}
	return func() {
		for _, d := range decs {
			d.Release()
		}
	}
}

// fillQueue parks one waiter in the admission queue behind held slots; the
// returned func withdraws it.
func fillQueue(t *testing.T, srv *Server) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if dec, err := srv.admission.Admit(ctx, "hold"); err == nil {
			dec.Release()
		}
	}()
	waitCond(t, "queue place taken", func() bool { return srv.admission.Queued() == 1 })
	return func() {
		cancel()
		<-done
	}
}

func TestBackpressureAndDeadline(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 1, DefaultTimeout: 5 * time.Second})

	// Occupy the only solve slot.
	release := occupySlots(t, srv, "hold", 1)
	defer release()

	req := SteadyRequest{
		Model:     ModelSpec{Floorplan: "ev6", Package: "air-sink"},
		Power:     map[string]float64{"IntReg": 2},
		TimeoutMS: 100,
	}

	// First request queues, then times out → 504.
	done := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/steady", req)
		done <- resp.StatusCode
	}()
	// Wait until it is queued, then a second request must shed with 429.
	deadline := time.Now().Add(2 * time.Second)
	for srv.admission.Queued() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	resp, raw := postJSON(t, ts.URL+"/v1/steady", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full status %d: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After header")
	}
	if code := <-done; code != http.StatusGatewayTimeout {
		t.Fatalf("queued request status %d, want 504", code)
	}
	st := srv.Stats()
	if st.RejectedQueueFull != 1 || st.DeadlineExceeded != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestStatsAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %v %v", err, resp)
	}
	resp.Body.Close()

	postJSON(t, ts.URL+"/v1/steady", SteadyRequest{
		Model: ModelSpec{Floorplan: "ev6", Package: "air-sink"},
		Power: map[string]float64{"IntReg": 2},
	})
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests["steady"] != 1 || st.Cache.Compiles != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestStatsSolverPath: after a transient request the stats must count the
// steps — every step is a factor-solve: one factorization at compile plus
// one for the replay's dt, a positive mean solve latency, and the
// supernodal factor's shape.
func TestStatsSolverPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := testTrace(t)
	resp, raw := postJSON(t, ts.URL+"/v1/transient", TransientRequest{
		Model: ModelSpec{Floorplan: "ev6", Package: "oil-silicon", Rconv: 0.3, Secondary: true},
		Trace: traceSpec(tr),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("transient: status %d: %s", resp.StatusCode, raw)
	}
	var tresp TransientResponse
	decodeInto(t, raw, &tresp)

	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st Stats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sv := st.Solver
	if sv.DirectSteps != int64(tresp.Steps) {
		t.Fatalf("direct steps %d, want %d (every replay step is a factor-solve)", sv.DirectSteps, tresp.Steps)
	}
	// One eager factorization at compile plus one for the replay's dt.
	if sv.Factorizations != 2 {
		t.Fatalf("factorizations %d, want 2", sv.Factorizations)
	}
	if sv.MeanStepSolveUS <= 0 {
		t.Fatalf("mean step solve latency %g, want > 0", sv.MeanStepSolveUS)
	}
	if sv.Supernodes <= 0 || sv.MaxPanelRows <= 0 {
		t.Fatalf("supernodal factor stats missing: supernodes=%d max_panel_rows=%d", sv.Supernodes, sv.MaxPanelRows)
	}

	// A second identical request reuses the cached factor.
	resp, raw = postJSON(t, ts.URL+"/v1/transient", TransientRequest{
		Model: ModelSpec{Floorplan: "ev6", Package: "oil-silicon", Rconv: 0.3, Secondary: true},
		Trace: traceSpec(tr),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("transient 2: status %d: %s", resp.StatusCode, raw)
	}
	sresp2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp2.Body.Close()
	var st2 Stats
	if err := json.NewDecoder(sresp2.Body).Decode(&st2); err != nil {
		t.Fatal(err)
	}
	if st2.Solver.Factorizations != 2 {
		t.Fatalf("second request re-factored: %d factorizations", st2.Solver.Factorizations)
	}
}

// TestUnencodableResponseIs500: a solve whose answer JSON cannot carry — a
// 1e308 W block drives the temperatures to +Inf — answers 500 with a JSON
// error counted in solve_errors, never a 200 with an empty body.
func TestUnencodableResponseIs500(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	req := steadyReq()
	req.Power = map[string]float64{"IntReg": 1e308}
	resp, raw := postJSON(t, ts.URL+"/v1/steady", req)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d with body %q, want 500", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var e errorResponse
	decodeInto(t, raw, &e)
	if !strings.Contains(e.Error, "unsupported value") {
		t.Fatalf("error %q does not name the encoding failure", e.Error)
	}
	if got := srv.Stats().SolveErrors; got != 1 {
		t.Fatalf("solve_errors %d, want 1", got)
	}
}

func TestStreamedTransientBadModelParams(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, q := range []string{"rconv=abc", "ambient_c=x", "interval=abc", "max_points=x", "timeout_ms=x", "floorplan=grid:0x9", "floorplan=grid:9"} {
		resp, err := http.Post(ts.URL+"/v1/transient?"+q, "text/plain",
			strings.NewReader("# interval 1e-3 s\nIntReg\n1\n"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestOutOfRangeModelInputsAnswer400: convection and ambient inputs that
// derive a zero or non-finite conductance (rconv 1e-320 or ∞) or a NaN or
// infinite ambient answer 400 on every endpoint, twice in a row: the first
// must not panic the model build and the second must not wait on a
// wedged cache entry. No request keeps its solve slot afterwards.
func TestOutOfRangeModelInputsAnswer400(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	client := &http.Client{Timeout: 10 * time.Second}
	oil := `{"floorplan":"ev6","package":"oil-silicon","rconv":1e-320}`
	stream := "# interval 1e-3 s\nIntReg\n1\n"
	reqs := []struct{ path, ctype, body string }{
		{"/v1/steady", "application/json", `{"model":` + oil + `,"power":{"IntReg":1}}`},
		{"/v1/invert", "application/json", strings.Replace(corpusInvert("60"), corpusModel, oil, 1)},
		{"/v1/transient", "application/json", `{"model":{"floorplan":"ev6","rconv":1e-320},"trace":` + corpusTrace + `}`},
		{"/v1/transient?floorplan=ev6&package=oil-silicon&rconv=Inf", "text/plain", stream},
		{"/v1/transient?floorplan=ev6&rconv=Inf", "text/plain", stream},
		{"/v1/transient?floorplan=ev6&rconv=1e-320", "text/plain", stream},
		{"/v1/transient?floorplan=ev6&ambient_c=NaN", "text/plain", stream},
		{"/v1/transient?floorplan=ev6&ambient_c=-Inf", "text/plain", stream},
		{"/v1/scenario", "application/json", `{"spec":` + strings.Replace(corpusSpec, `"rconv":1.0`, `"rconv":1e-320`, 1) + `}`},
	}
	for _, rq := range reqs {
		for attempt := 1; attempt <= 2; attempt++ {
			resp, err := client.Post(ts.URL+rq.path, rq.ctype, strings.NewReader(rq.body))
			if err != nil {
				t.Fatalf("%s attempt %d: %v", rq.path, attempt, err)
			}
			var buf bytes.Buffer
			_, _ = buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(buf.String(), "model: hotspot:") {
				t.Fatalf("%s attempt %d: status %d %s, want a 400 model error", rq.path, attempt, resp.StatusCode, buf.Bytes())
			}
		}
	}
	// A sweep reports the same refusal in its scenario's result.
	resp, raw := postJSON(t, ts.URL+"/v1/sweep", json.RawMessage(`{"scenarios":[{"model":`+oil+`,"power":{"IntReg":1}}]}`))
	var sw SweepResponse
	decodeInto(t, raw, &sw)
	if resp.StatusCode != http.StatusOK || !strings.Contains(sw.Results[0].Error, "out of range") {
		t.Fatalf("sweep: status %d %s", resp.StatusCode, raw)
	}
	if st := srv.Stats(); st.InFlight != 0 || st.Cache.CompileErrors != int64(2*len(reqs)+1) {
		t.Fatalf("in_flight %d, compile_errors %d; want 0 and %d", st.InFlight, st.Cache.CompileErrors, 2*len(reqs)+1)
	}
}

func TestGridFloorplanSpec(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/steady", SteadyRequest{
		Model: ModelSpec{Floorplan: "grid:4x4", Package: "oil-silicon"},
		Power: map[string]float64{"c0_0": 1.0},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
}

func TestInlineFLPSpec(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	flp := "a\t8e-3\t16e-3\t0\t0\nb\t8e-3\t16e-3\t8e-3\t0\n"
	resp, raw := postJSON(t, ts.URL+"/v1/steady", SteadyRequest{
		Model: ModelSpec{FLP: flp, Package: "air-sink"},
		Power: map[string]float64{"a": 5},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out SteadyResponse
	decodeInto(t, raw, &out)
	if out.BlockC["a"] <= out.BlockC["b"] {
		t.Fatalf("powered block not hotter: a=%.2f b=%.2f", out.BlockC["a"], out.BlockC["b"])
	}
}

// capFLP returns a 128×128-grid .flp, floorplan.MaxInlineBlocks blocks,
// with extra more blocks set beside the grid.
func capFLP(t *testing.T, extra int) string {
	t.Helper()
	var sb strings.Builder
	if err := floorplan.GridDie(16e-3, 16e-3, 128, 128).Write(&sb); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < extra; i++ {
		fmt.Fprintf(&sb, "extra%d\t1e-3\t1e-3\t%g\t0\n", i, 20e-3+float64(i)*1e-3)
	}
	return sb.String()
}

// TestInlineFLPBlockCap: an inline floorplan of floorplan.MaxInlineBlocks
// blocks (the 128×128 named grid's count) resolves; one more block answers
// 400 naming the cap, before any model is built.
func TestInlineFLPBlockCap(t *testing.T) {
	if _, err := (ModelSpec{FLP: capFLP(t, 0), Package: "oil-silicon"}).Fingerprint(); err != nil {
		t.Fatalf("%d inline blocks: %v", floorplan.MaxInlineBlocks, err)
	}
	over := ModelSpec{FLP: capFLP(t, 1), Package: "oil-silicon"}
	if _, err := over.Fingerprint(); err == nil {
		t.Fatalf("%d inline blocks: Fingerprint accepted them", floorplan.MaxInlineBlocks+1)
	}
	srv, ts := newTestServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/steady", SteadyRequest{Model: over, Power: map[string]float64{"c0_0": 1}})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "more than 16384 blocks") {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if st := srv.Stats(); st.Cache.Misses != 0 {
		t.Fatalf("cache misses %d: a refused floorplan reached the model cache", st.Cache.Misses)
	}
}

func TestDeadlineMidReplay(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A replay that takes far longer than the deadline (≈100 ms of stepping
	// vs a 5 ms budget, wide margin for coarse timers) must abort between
	// rows with 504 rather than running to completion.
	tr, err := trace.Step(floorplan.EV6().Names(), map[string]float64{"IntReg": 2}, 25.0, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := postJSON(t, ts.URL+"/v1/transient", TransientRequest{
		Model:     ModelSpec{Floorplan: "ev6", Package: "air-sink"},
		Trace:     traceSpec(tr),
		TimeoutMS: 5,
	})
	if len(raw) > 300 {
		raw = raw[:300]
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s...", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "deadline") {
		t.Fatalf("error body: %s", raw)
	}
}

func TestServeLifecycle(t *testing.T) {
	srv := New(Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // free the port for Serve (tiny race window, fine for a test)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, addr) }()

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}

func TestGridSpecBounds(t *testing.T) {
	sp := ModelSpec{Floorplan: fmt.Sprintf("grid:%dx2", maxGridSide+1)}
	if _, err := sp.resolveFloorplan(); err == nil {
		t.Fatal("oversized grid accepted")
	}
}

// An unknown serving mode is a client error, not a silent default.
func TestUnknownServingModeRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := map[string]any{
		"model": map[string]any{"floorplan": "ev6", "serving": "sometimes"},
		"power": map[string]float64{"IntReg": 2.0},
	}
	resp, raw := postJSON(t, ts.URL+"/v1/steady", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
}

// TestSteadyServingModesMatchFullOrRefuse: no model field may change the
// physics behind a served steady state. Each serving or reduction field a
// client may send must either be refused with 400 or answer block
// temperatures within 0.1 K of the same request without it, on models
// where a default-order Krylov basis is exact (ev6, grid:8x8) and on one
// where it truncates (grid:16x16). Unknown serving values, and every
// serving field on the scenario endpoint, must be refused outright. The
// bodies are raw JSON maps, so the fields need not exist in ModelSpec or
// ScenarioRequest.
func TestSteadyServingModesMatchFullOrRefuse(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	grid := map[string]float64{"c0_0": 3, "c3_5": 2}
	models := []struct {
		floorplan string
		power     map[string]float64
	}{
		{"ev6", map[string]float64{"IntReg": 3, "FPMul": 2}},
		{"grid:8x8", grid},
		{"grid:16x16", grid},
	}
	cases := []struct {
		extra  map[string]any
		refuse bool // an unknown value: matching the plain answer is not enough
	}{
		{extra: map[string]any{"serving": "per-user"}},
		{extra: map[string]any{"serving": "auto"}},
		{extra: map[string]any{"serving": "batch"}},
		{extra: map[string]any{"reduced": true}},
		{extra: map[string]any{"reduced": true, "reduced_order": 8}},
		{extra: map[string]any{"serving": "sometimes"}, refuse: true},
	}
	steady := func(floorplan string, power map[string]float64, extra map[string]any) (*http.Response, []byte) {
		model := map[string]any{"floorplan": floorplan, "package": "oil-silicon"}
		for k, v := range extra {
			model[k] = v
		}
		return postJSON(t, ts.URL+"/v1/steady", map[string]any{"model": model, "power": power})
	}
	for _, m := range models {
		resp, raw := steady(m.floorplan, m.power, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s plain: status %d: %s", m.floorplan, resp.StatusCode, raw)
		}
		var plain SteadyResponse
		decodeInto(t, raw, &plain)
		for _, c := range cases {
			name := fmt.Sprintf("%s %v", m.floorplan, c.extra)
			resp, raw := steady(m.floorplan, m.power, c.extra)
			if resp.StatusCode == http.StatusBadRequest {
				t.Logf("%s: refused: %s", name, bytes.TrimSpace(raw))
				continue
			}
			if c.refuse {
				t.Errorf("%s: status %d, want 400: %s", name, resp.StatusCode, raw)
				continue
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d, want 400 or 200: %s", name, resp.StatusCode, raw)
				continue
			}
			var got SteadyResponse
			decodeInto(t, raw, &got)
			for block, want := range plain.BlockC {
				if d := math.Abs(got.BlockC[block] - want); !(d <= 0.1) {
					t.Errorf("%s: block %s at %.2f °C, full model %.2f °C (|ΔT| %.3g K > 0.1 K)",
						name, block, got.BlockC[block], want, d)
					break
				}
			}
		}
	}
	for _, serving := range []string{"per-user", "auto", "bogus"} {
		resp, raw := postJSON(t, ts.URL+"/v1/scenario", map[string]any{
			"spec": json.RawMessage(sweepSpecJSON), "serving": serving,
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("scenario serving %q: status %d, want 400: %.200s", serving, resp.StatusCode, raw)
		}
	}
}
