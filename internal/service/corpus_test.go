package service

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/floorplan"
	"repro/internal/tstore"
)

var updateCorpus = flag.Bool("update", false, "rewrite testdata/endpoint_corpus.golden")

// corpusRow is one request of TestEndpointCorpus, sent to a fresh server.
type corpusRow struct {
	name  string
	store bool // the server has a telemetry store
	// setup prepares the server before the stats snapshot:
	//   hold   the only solve slot is held, so the request queues
	//   rate   the "metered" tenant's one token is spent
	//   drain  the server is draining
	//   prime  the ev6 air-sink model is compiled
	//   series the store holds five rows of runs/q/IntReg
	setup        string
	method, path string
	ctype        string // "" sends application/json
	tenant       string
	body         string
	// vary lists stats prefixes whose deltas depend on timing; the golden
	// file records them as "*".
	vary []string
}

const (
	corpusModel  = `{"floorplan":"ev6","package":"air-sink"}`
	corpusSteady = `{"model":` + corpusModel + `,"power":{"IntReg":2}}`
	corpusTrace  = `{"names":["IntReg"],"interval":0.001,"rows":[[3],[3],[0],[0]]}`
	corpusTrans  = `{"model":` + corpusModel + `,"trace":` + corpusTrace + `,"max_points":3}`
	corpusSweep  = `{"workers":1,"scenarios":[` +
		`{"model":` + corpusModel + `,"power":{"IntReg":2}},` +
		`{"model":{"floorplan":"ev6","package":"oil-silicon","rconv":1},"trace":` + corpusTrace + `,"warm_start":true},` +
		`{"model":{"floorplan":"nope"},"power":{"IntReg":2}},` +
		`{"model":` + corpusModel + `}]}`
	corpusSpec = `{"name":"corpus","interval":1e-3,"emergency_c":74,"initial_steady":true,` +
		`"phases":[{"name":"burst","duration":0.02,"pulse":{"block":"IntReg","peak_w":3,"on_s":5e-3,"off_s":5e-3}}],` +
		`"packages":[{"label":"air","kind":"air-sink","rconv":1.0}],` +
		`"policies":{"trigger_c":[66,69],"engage_s":[5e-3],"perf_factor":[0.5]}}`
	corpusScenario = `{"workers":1,"spec":` + corpusSpec + `}`
	corpusStream   = "# interval 1e-3 s\nIntReg\n3\n3\n0\n0\n"
)

// corpusInvert is an ev6 invert body: every block observed at 50 °C but
// IntReg, at hot.
func corpusInvert(hot string) string {
	var b strings.Builder
	b.WriteString(`{"model":` + corpusModel + `,"observed_c":{`)
	for i, n := range floorplan.EV6().Names() {
		if i > 0 {
			b.WriteByte(',')
		}
		v := "50"
		if n == "IntReg" {
			v = hot
		}
		fmt.Fprintf(&b, "%q:%s", n, v)
	}
	b.WriteString("}}")
	return b.String()
}

func corpusRows() []corpusRow {
	longTrace := `{"model":` + corpusModel + `,"timeout_ms":5,"trace":{"names":["IntReg"],"interval":0.001,"rows":[[2]` +
		strings.Repeat(",[2]", 24999) + `]}}`
	admitted := []struct{ name, method, path, ctype, body string }{
		{"steady", "POST", "/v1/steady", "", corpusSteady},
		{"transient", "POST", "/v1/transient", "", corpusTrans},
		{"sweep", "POST", "/v1/sweep", "", corpusSweep},
		{"invert", "POST", "/v1/invert", "", corpusInvert("60")},
		{"scenario", "POST", "/v1/scenario", "", corpusScenario},
		{"scenario_stream", "POST", "/v1/scenario/stream", "", corpusScenario},
		{"query", "GET", "/v1/query?series=runs/q/IntReg", "", ""},
		{"query_stream", "GET", "/v1/query/stream?series=runs/q/IntReg", "", ""},
	}
	rows := []corpusRow{
		// 200
		{name: "steady/200", method: "POST", path: "/v1/steady", body: corpusSteady},
		{name: "steady/200-warm-cache", setup: "prime", method: "POST", path: "/v1/steady", body: corpusSteady},
		{name: "transient/200-inline", method: "POST", path: "/v1/transient", body: corpusTrans},
		{name: "transient/200-streamed", method: "POST", path: "/v1/transient?floorplan=ev6&package=air-sink&max_points=3",
			ctype: "text/plain", body: corpusStream},
		{name: "transient/200-warm-start", method: "POST", path: "/v1/transient",
			body: `{"model":` + corpusModel + `,"trace":` + corpusTrace + `,"max_points":2,"warm_start":true}`},
		{name: "transient/200-persist", store: true, method: "POST", path: "/v1/transient",
			body: `{"model":` + corpusModel + `,"trace":` + corpusTrace + `,"max_points":2,"persist":"runs/t"}`},
		{name: "transient/200-streamed-persist", store: true, method: "POST",
			path: "/v1/transient?floorplan=ev6&package=air-sink&max_points=2&persist=runs/st", ctype: "text/plain", body: corpusStream},
		{name: "sweep/200", method: "POST", path: "/v1/sweep", body: corpusSweep},
		{name: "invert/200", method: "POST", path: "/v1/invert", body: corpusInvert("60")},
		{name: "scenario/200", method: "POST", path: "/v1/scenario", body: corpusScenario},
		{name: "scenario/200-persist", store: true, method: "POST", path: "/v1/scenario",
			body: `{"workers":1,"persist":"runs/s","spec":` + corpusSpec + `}`},
		{name: "scenario_stream/200", method: "POST", path: "/v1/scenario/stream", body: corpusScenario},
		{name: "scenario_stream/200-persist", store: true, method: "POST", path: "/v1/scenario/stream",
			body: `{"workers":1,"persist":"runs/ss","spec":` + corpusSpec + `}`},
		{name: "query/200", store: true, setup: "series", method: "GET", path: "/v1/query?series=runs/q/IntReg"},
		{name: "query/200-downsample", store: true, setup: "series", method: "GET",
			path: "/v1/query?series=runs/q/IntReg&downsample_ns=2000&limit=2"},
		{name: "query_stream/200", store: true, setup: "series", method: "GET", path: "/v1/query/stream?series=runs/q/IntReg&limit=3"},
		{name: "query_series/200", store: true, setup: "series", method: "GET", path: "/v1/query/series?prefix=runs/"},
		{name: "healthz/200", method: "GET", path: "/healthz"},
		{name: "readyz/200", method: "GET", path: "/readyz"},
		{name: "readyz/503-draining", setup: "drain", method: "GET", path: "/readyz"},

		// 400: decode
		{name: "steady/400-decode", method: "POST", path: "/v1/steady", body: `not json`},
		{name: "steady/400-unknown-field", method: "POST", path: "/v1/steady", body: `{"unknown_field":1}`},
		{name: "transient/400-decode", method: "POST", path: "/v1/transient", body: `not json`},
		{name: "sweep/400-decode", method: "POST", path: "/v1/sweep", body: `{"scenarios":`},
		{name: "invert/400-decode", method: "POST", path: "/v1/invert", body: `not json`},
		{name: "scenario/400-decode", method: "POST", path: "/v1/scenario", body: `not json`},
		{name: "scenario_stream/400-decode", method: "POST", path: "/v1/scenario/stream", body: `{"spec":1}`},
		{name: "transient/400-streamed-param", method: "POST", path: "/v1/transient?rconv=abc", ctype: "text/plain", body: corpusStream},
		{name: "transient/400-streamed-header", method: "POST", path: "/v1/transient?floorplan=ev6", ctype: "text/plain", body: "\n"},
		{name: "query/400-param", store: true, method: "GET", path: "/v1/query?series=s&limit=zz"},

		// 400: validate
		{name: "steady/400-empty-power", method: "POST", path: "/v1/steady", body: `{"model":` + corpusModel + `,"power":{}}`},
		{name: "steady/400-tenant", tenant: strings.Repeat("t", maxTenantName+1), method: "POST", path: "/v1/steady", body: corpusSteady},
		{name: "transient/400-missing-trace", method: "POST", path: "/v1/transient", body: `{"model":` + corpusModel + `}`},
		{name: "transient/400-bad-trace", method: "POST", path: "/v1/transient",
			body: `{"model":` + corpusModel + `,"trace":{"names":["IntReg"],"interval":-1,"rows":[[1]]}}`},
		{name: "transient/400-streamed-names", method: "POST", path: "/v1/transient?floorplan=ev6", ctype: "text/plain",
			body: "# interval 1e-3 s\nNotABlock\n1\n"},
		{name: "transient/400-persist-no-store", method: "POST", path: "/v1/transient",
			body: `{"model":` + corpusModel + `,"trace":` + corpusTrace + `,"persist":"run1"}`},
		{name: "transient/400-persist-bad-name", store: true, method: "POST", path: "/v1/transient",
			body: `{"model":` + corpusModel + `,"trace":` + corpusTrace + `,"persist":"has space"}`},
		{name: "transient/400-streamed-persist-no-store", method: "POST", path: "/v1/transient?floorplan=ev6&persist=run1",
			ctype: "text/plain", body: corpusStream},
		{name: "sweep/400-no-scenarios", method: "POST", path: "/v1/sweep", body: `{"scenarios":[]}`},
		{name: "invert/400-empty", method: "POST", path: "/v1/invert", body: `{"model":` + corpusModel + `,"observed_c":{}}`},
		{name: "invert/400-unknown-block", method: "POST", path: "/v1/invert",
			body: `{"model":` + corpusModel + `,"observed_c":{"NotABlock":50}}`},
		{name: "invert/400-partial", method: "POST", path: "/v1/invert", body: `{"model":` + corpusModel + `,"observed_c":{"IntReg":50}}`},
		{name: "scenario/400-missing-spec", method: "POST", path: "/v1/scenario", body: `{}`},
		{name: "scenario/400-persist-no-store", method: "POST", path: "/v1/scenario",
			body: `{"persist":"run1","spec":` + corpusSpec + `}`},
		{name: "scenario_stream/400-bad-spec", method: "POST", path: "/v1/scenario/stream", body: `{"spec":{"name":"x"}}`},
		{name: "query/400-missing-series", store: true, method: "GET", path: "/v1/query"},

		// 400: model
		{name: "steady/400-model", method: "POST", path: "/v1/steady", body: `{"model":{"floorplan":"nope"},"power":{"a":1}}`},
		{name: "steady/400-unknown-block", method: "POST", path: "/v1/steady", body: `{"model":` + corpusModel + `,"power":{"NotABlock":1}}`},
		{name: "transient/400-model", method: "POST", path: "/v1/transient",
			body: `{"model":{"floorplan":"grid:0x9"},"trace":` + corpusTrace + `}`},
		{name: "transient/400-trace-names", method: "POST", path: "/v1/transient",
			body: `{"model":` + corpusModel + `,"trace":{"names":["NotABlock"],"interval":0.001,"rows":[[1]]}}`},
		{name: "transient/400-streamed-model", method: "POST", path: "/v1/transient?floorplan=grid:9", ctype: "text/plain", body: corpusStream},
		{name: "invert/400-model", method: "POST", path: "/v1/invert", body: `{"model":{"floorplan":"nope"},"observed_c":{"a":1}}`},
		{name: "scenario/400-model", method: "POST", path: "/v1/scenario",
			body: `{"spec":` + strings.Replace(corpusSpec, `"air-sink"`, `"bogus"`, 1) + `}`},

		// 404
		{name: "query/404", store: true, method: "GET", path: "/v1/query?series=nope"},
		{name: "query_stream/404", store: true, method: "GET", path: "/v1/query/stream?series=nope"},

		// 500
		{name: "steady/500-unencodable", method: "POST", path: "/v1/steady", body: `{"model":` + corpusModel + `,"power":{"IntReg":1e308}}`},
		{name: "transient/500-unencodable", method: "POST", path: "/v1/transient",
			body: `{"model":` + corpusModel + `,"trace":{"names":["IntReg"],"interval":1000,"rows":[[1e308]]}}`},
		{name: "sweep/500-unencodable", method: "POST", path: "/v1/sweep",
			body: `{"scenarios":[{"model":` + corpusModel + `,"power":{"IntReg":1e308}}]}`},
		{name: "invert/500-unencodable", method: "POST", path: "/v1/invert", body: corpusInvert("1e308")},

		// 503: no store
		{name: "query/503-no-store", method: "GET", path: "/v1/query?series=x"},
		{name: "query_stream/503-no-store", method: "GET", path: "/v1/query/stream?series=x"},
		{name: "query_series/503-no-store", method: "GET", path: "/v1/query/series"},

		// 504: mid-replay
		{name: "transient/504-mid-replay", setup: "prime", method: "POST", path: "/v1/transient", body: longTrace,
			vary: []string{"solver.batch_widths", "solver.direct_steps", "solver.kernel_solves"}},
	}
	for _, e := range admitted {
		store := strings.HasPrefix(e.name, "query")
		rows = append(rows,
			corpusRow{name: e.name + "/429-rate", store: store, setup: "rate", tenant: "metered",
				method: e.method, path: e.path, ctype: e.ctype, body: e.body},
			corpusRow{name: e.name + "/503-draining", store: store, setup: "drain",
				method: e.method, path: e.path, ctype: e.ctype, body: e.body},
			corpusRow{name: e.name + "/504-queued", store: store, setup: "hold",
				method: e.method, path: withTimeout(e.path, e.body), ctype: e.ctype, body: withTimeoutBody(e.body)},
		)
	}
	return rows
}

// withTimeout adds timeout_ms=50 to a query endpoint's URL (bodiless
// requests carry their timeout in the query string).
func withTimeout(path, body string) string {
	if body != "" {
		return path
	}
	return path + "&timeout_ms=50"
}

// withTimeoutBody adds "timeout_ms": 50 to a JSON request body.
func withTimeoutBody(body string) string {
	if body == "" {
		return ""
	}
	return `{"timeout_ms":50,` + body[1:]
}

// TestEndpointCorpus pins every endpoint's answer to a fixed request
// corpus: status, Retry-After, Content-Type, the body (solve_ms masked,
// floats rounded to 9 significant digits) and the delta of every /v1/stats
// counter the request moved. Each row runs on a fresh server. Regenerate
// with -update after an intended change.
func TestEndpointCorpus(t *testing.T) {
	rows := corpusRows()
	var out strings.Builder
	seen := map[string]bool{}
	for _, row := range rows {
		if seen[row.name] {
			t.Fatalf("duplicate corpus row %q", row.name)
		}
		seen[row.name] = true
		out.WriteString(runCorpusRow(t, row))
	}
	path := filepath.Join("testdata", "endpoint_corpus.golden")
	if *updateCorpus {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want, got := corpusBlocks(string(raw)), corpusBlocks(out.String())
	for _, row := range rows {
		if want[row.name] != got[row.name] {
			t.Errorf("row %s:\n--- golden\n%s--- got\n%s", row.name, want[row.name], got[row.name])
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d rows, corpus %d", len(want), len(got))
	}
}

// corpusBlocks splits a golden text into its rows, by name.
func corpusBlocks(s string) map[string]string {
	blocks := map[string]string{}
	for _, b := range strings.Split(s, "=== ")[1:] {
		name, _, _ := strings.Cut(b, "\n")
		blocks[name] = b
	}
	return blocks
}

var (
	solveMSField = regexp.MustCompile(`"solve_ms":[-+.0-9eE]+`)
	replayRow    = regexp.MustCompile(`replay row [0-9]+`)
	retryAfter   = regexp.MustCompile(`retry after [0-9.hmsµn]+`)
	// jsonFloat matches a JSON number with a fraction or an exponent.
	jsonFloat = regexp.MustCompile(`-?[0-9]+(\.[0-9]+)?[eE][-+]?[0-9]+|-?[0-9]+\.[0-9]+`)
)

// roundFloats rounds every non-integer number in a body to 9 significant
// digits, the 1e-9 the repository's golden fixtures hold physics to:
// platforms that fuse multiply-adds may differ in the last bits.
func roundFloats(body string) string {
	return jsonFloat.ReplaceAllStringFunc(body, func(num string) string {
		v, err := strconv.ParseFloat(num, 64)
		if err != nil {
			return num
		}
		return strconv.FormatFloat(v, 'g', 9, 64)
	})
}

func runCorpusRow(t *testing.T, row corpusRow) string {
	t.Helper()
	cfg := Config{
		MaxConcurrent: 1,
		Tenants:       map[string]admission.Quota{"metered": {RatePerSec: 0.001, Burst: 1}},
	}
	var st *tstore.Store
	if row.store {
		var err error
		if st, err = tstore.Open(t.TempDir(), tstore.Options{}); err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		cfg.Store = st
	}
	srv, ts := newTestServer(t, cfg)
	defer ts.Close()

	release := func() {}
	switch row.setup {
	case "":
	case "hold":
		release = occupySlots(t, srv, "hold", 1)
	case "rate":
		dec, err := srv.admission.Admit(context.Background(), "metered")
		if err != nil {
			t.Fatal(err)
		}
		dec.Release()
	case "drain":
		srv.BeginDrain()
	case "prime":
		if resp, raw := postJSON(t, ts.URL+"/v1/steady", json.RawMessage(corpusSteady)); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: prime: status %d: %s", row.name, resp.StatusCode, raw)
		}
	case "series":
		for i := 0; i < 5; i++ {
			if err := st.Append("runs/q/IntReg", int64(i)*1000, 45+float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("%s: unknown setup %q", row.name, row.setup)
	}

	before := flattenStats(t, srv.Stats())
	req, err := http.NewRequest(row.method, ts.URL+row.path, strings.NewReader(row.body))
	if err != nil {
		t.Fatal(err)
	}
	ctype := row.ctype
	if ctype == "" && row.body != "" {
		ctype = "application/json"
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if row.tenant != "" {
		req.Header.Set("X-Tenant", row.tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s: %v", row.name, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("%s: read body: %v", row.name, err)
	}
	after := flattenStats(t, srv.Stats())
	release()

	masked := roundFloats(solveMSField.ReplaceAllString(string(body), `"solve_ms":"*"`))
	masked = replayRow.ReplaceAllString(masked, "replay row *")
	masked = retryAfter.ReplaceAllString(masked, "retry after *")
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s\n%s %s\nstatus: %d\nretry-after: %s\ncontent-type: %s\nbody:\n",
		row.name, row.method, row.path, resp.StatusCode, resp.Header.Get("Retry-After"), resp.Header.Get("Content-Type"))
	for _, line := range strings.Split(strings.TrimRight(masked, "\n"), "\n") {
		fmt.Fprintf(&b, "  %s\n", line)
	}
	b.WriteString("stats:\n")
	keys := make([]string, 0, len(after))
	for k := range after {
		keys = append(keys, k)
	}
	for k := range before {
		if _, ok := after[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, prefix := range row.vary {
		fmt.Fprintf(&b, "  %s *\n", prefix)
	}
keys:
	for _, k := range keys {
		for _, prefix := range row.vary {
			if strings.HasPrefix(k, prefix) {
				continue keys
			}
		}
		if d := after[k] - before[k]; d != 0 {
			fmt.Fprintf(&b, "  %s %+g\n", k, d)
		}
	}
	return b.String()
}

// flattenStats maps every numeric and boolean leaf of the /v1/stats payload
// to its dotted path. Latency readings (keys ending _ms or _us) depend on
// timing and are left out.
func flattenStats(t *testing.T, st Stats) map[string]float64 {
	t.Helper()
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var tree map[string]any
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, c := range v {
				if strings.HasSuffix(k, "_ms") || strings.HasSuffix(k, "_us") {
					continue
				}
				p := k
				if prefix != "" {
					p = prefix + "." + k
				}
				walk(p, c)
			}
		case float64:
			out[prefix] = v
		case bool:
			if v {
				out[prefix] = 1
			}
		}
	}
	walk("", tree)
	return out
}
