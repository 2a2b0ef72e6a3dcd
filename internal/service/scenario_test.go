package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/scenario"
)

// sweepSpecJSON is the acceptance-criteria scenario: ≥12 policy-grid cells
// over AIR-SINK and OIL-SILICON. Triggers are placed between the two
// packages' operating points so the identical policy engages under oil but
// not under air (the §5.1 qualitative result).
const sweepSpecJSON = `{
	"name": "api-sweep",
	"interval": 1e-3,
	"emergency_c": 74,
	"initial_steady": true,
	"phases": [
		{"name": "burst", "duration": 0.2,
		 "pulse": {"block": "IntReg", "peak_w": 3, "on_s": 30e-3, "off_s": 70e-3}}
	],
	"packages": [
		{"label": "air", "kind": "air-sink", "rconv": 1.0},
		{"label": "oil", "kind": "oil-silicon", "rconv": 1.0}
	],
	"policies": {
		"trigger_c": [66, 69, 72],
		"engage_s": [5e-3, 20e-3],
		"perf_factor": [0.5]
	}
}`

func scenarioRequestBody(t *testing.T, workers int) []byte {
	t.Helper()
	raw, err := json.Marshal(ScenarioRequest{Spec: json.RawMessage(sweepSpecJSON), Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestScenarioEndpoint: the buffered endpoint runs the 12-cell grid and the
// identical policy engages differently across cooling configurations.
func TestScenarioEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/scenario", ScenarioRequest{Spec: json.RawMessage(sweepSpecJSON)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out ScenarioResponse
	decodeInto(t, raw, &out)
	if out.Name != "api-sweep" || len(out.Cells) != 12 {
		t.Fatalf("want 12 cells for api-sweep, got %d for %q", len(out.Cells), out.Name)
	}
	duty := map[string]float64{}
	for i, c := range out.Cells {
		if c.Error != "" {
			t.Fatalf("cell %d failed: %s", i, c.Error)
		}
		if c.Cell != i {
			t.Fatalf("buffered cells must be in grid order: got %d at %d", c.Cell, i)
		}
		if c.Metrics == nil || c.Metrics.DurationS == 0 {
			t.Fatalf("cell %d has no metrics", i)
		}
		duty[c.Package] += c.Metrics.DutyCycle
	}
	if duty["air"] >= duty["oil"] {
		t.Fatalf("identical policies should throttle oil more than air here: air %.3f vs oil %.3f",
			duty["air"], duty["oil"])
	}
	// Both package models went through the compiled-model cache.
	if got := srv.Cache().Len(); got != 2 {
		t.Fatalf("want 2 cached models, got %d", got)
	}
	if out.Cache != "miss" {
		t.Fatalf("first scenario request should report a cache miss, got %q", out.Cache)
	}
	// A repeat is a full cache hit and bit-identical.
	resp2, raw2 := postJSON(t, ts.URL+"/v1/scenario", ScenarioRequest{Spec: json.RawMessage(sweepSpecJSON)})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d", resp2.StatusCode)
	}
	var out2 ScenarioResponse
	decodeInto(t, raw2, &out2)
	if out2.Cache != "hit" {
		t.Fatalf("second scenario request should hit the model cache, got %q", out2.Cache)
	}
	for i := range out.Cells {
		if !reflect.DeepEqual(out.Cells[i].Metrics, out2.Cells[i].Metrics) {
			t.Fatalf("cell %d differs between runs", i)
		}
	}
}

// TestScenarioStreamEndpoint: the NDJSON stream carries a header, one row
// per cell, and a trailer; workers=4 streamed cells match the buffered
// workers=1 run bit-identically.
func TestScenarioStreamEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	respBuf, rawBuf := postJSON(t, ts.URL+"/v1/scenario", ScenarioRequest{Spec: json.RawMessage(sweepSpecJSON), Workers: 1})
	if respBuf.StatusCode != http.StatusOK {
		t.Fatalf("buffered status %d: %s", respBuf.StatusCode, rawBuf)
	}
	var buffered ScenarioResponse
	decodeInto(t, rawBuf, &buffered)

	resp, err := http.Post(ts.URL+"/v1/scenario/stream", "application/json", bytes.NewReader(scenarioRequestBody(t, 4)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)

	if !sc.Scan() {
		t.Fatal("no header row")
	}
	var hdr ScenarioHeaderJSON
	decodeInto(t, sc.Bytes(), &hdr)
	if hdr.Cells != 12 || hdr.Steps == 0 || hdr.IntervalS != 1e-3 {
		t.Fatalf("bad stream header: %+v", hdr)
	}

	cells := make(map[int]ScenarioCellJSON)
	var trailer ScenarioTrailerJSON
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"done"`)) {
			decodeInto(t, line, &trailer)
			continue
		}
		var c ScenarioCellJSON
		decodeInto(t, line, &c)
		if c.Error != "" {
			t.Fatalf("cell %d failed: %s", c.Cell, c.Error)
		}
		cells[c.Cell] = c
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !trailer.Done || trailer.SolveMS <= 0 {
		t.Fatalf("bad trailer: %+v", trailer)
	}
	if len(cells) != 12 {
		t.Fatalf("want 12 streamed cells, got %d", len(cells))
	}
	// Streamed workers=4 must be bit-identical to buffered workers=1.
	for i, want := range buffered.Cells {
		got, ok := cells[i]
		if !ok {
			t.Fatalf("cell %d missing from stream", i)
		}
		if !reflect.DeepEqual(got.Metrics, want.Metrics) {
			t.Fatalf("cell %d: stream workers=4 differs from buffered workers=1:\n %+v\n %+v",
				i, got.Metrics, want.Metrics)
		}
		if !reflect.DeepEqual(got.Policy, want.Policy) || got.Package != want.Package {
			t.Fatalf("cell %d identity mismatch", i)
		}
	}
}

// TestScenarioRejectsHostileSpecs: spec-layer validation surfaces as 400
// with the field-anchored message.
func TestScenarioRejectsHostileSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, spec := range map[string]string{
		"empty phases":   `{"emergency_c": 80, "phases": [], "packages": [{"kind":"air-sink"}], "policies": {"trigger_c": [60]}}`,
		"unknown field":  `{"emergency_c": 80, "bogus": 1}`,
		"unknown sensor": `{"emergency_c": 80, "phases": [{"duration": 0.01, "pulse": {"block": "IntReg", "peak_w": 1, "on_s": 1e-3, "off_s": 0}}], "sensors": [{"block": "Nope"}], "packages": [{"kind":"air-sink"}], "policies": {"trigger_c": [60]}}`,
	} {
		resp, raw := postJSON(t, ts.URL+"/v1/scenario", ScenarioRequest{Spec: json.RawMessage(spec)})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: want 400, got %d: %s", name, resp.StatusCode, raw)
		}
		var e errorResponse
		decodeInto(t, raw, &e)
		if e.Error == "" {
			t.Fatalf("%s: no error message", name)
		}
	}
	// Missing spec entirely.
	resp, _ := postJSON(t, ts.URL+"/v1/scenario", map[string]any{"workers": 2})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing spec: want 400, got %d", resp.StatusCode)
	}
}

// TestScenarioDeadline: an aggressive request deadline aborts the grid —
// buffered requests get 504, streamed requests get error rows.
func TestScenarioDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	raw, err := json.Marshal(ScenarioRequest{Spec: json.RawMessage(sweepSpecJSON), TimeoutMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/scenario", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout && resp.StatusCode != http.StatusOK {
		t.Fatalf("want 504 (or a fast 200), got %d", resp.StatusCode)
	}
}

// TestScenarioMetricsCounted: scenario requests show up in /v1/stats.
func TestScenarioMetricsCounted(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/scenario", ScenarioRequest{Spec: json.RawMessage(`{"emergency_c": 80}`)})
	if got := srv.Stats().Requests["scenario"]; got != 1 {
		t.Fatalf("scenario request not counted: %d", got)
	}
}

// TestScenarioSpecRoundTrip: the scenario package's own spec type marshals
// into the request envelope losslessly (the CLI uses this path).
func TestScenarioSpecRoundTrip(t *testing.T) {
	spec := scenario.Spec{
		EmergencyC: 80,
		Phases:     []scenario.Phase{{Duration: 0.01, Pulse: &scenario.PulseSpec{Block: "IntReg", PeakW: 1, OnS: 1e-3}}},
		Packages:   []scenario.PackageSpec{{Kind: "air-sink"}},
		Policies:   scenario.PolicyGrid{TriggerC: []float64{1e6}},
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/scenario", ScenarioRequest{Spec: raw})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("round-tripped spec rejected: %d: %s", resp.StatusCode, body)
	}
}
