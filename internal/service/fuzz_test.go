package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fuzzPaths are the endpoints FuzzHandlers drives, each with the exported
// type its 200 body decodes into.
var fuzzPaths = []struct {
	path string
	resp func() any
}{
	{"/v1/steady", func() any { return new(SteadyResponse) }},
	{"/v1/invert", func() any { return new(InvertResponse) }},
	{"/v1/sweep", func() any { return new(SweepResponse) }},
	{"/v1/transient", func() any { return new(TransientResponse) }},
}

const (
	// fuzzMaxBlocks and fuzzMaxBody skip inputs with a larger model or a
	// longer body, so each exec stays fast: a transient's reply grows with
	// blocks × rows.
	fuzzMaxBlocks = 256
	fuzzMaxBody   = 4 << 10
	// fuzzDeadline is how long an input may take to be answered.
	fuzzDeadline = 20 * time.Second
)

// fuzzTooLarge reports whether a body is past fuzzMaxBody or names a model
// past fuzzMaxBlocks.
func fuzzTooLarge(body []byte) bool {
	if len(body) > fuzzMaxBody {
		return true
	}
	var shape struct {
		Model     ModelSpec `json:"model"`
		Scenarios []struct {
			Model ModelSpec `json:"model"`
		} `json:"scenarios"`
	}
	_ = json.Unmarshal(body, &shape) // a body that does not decode names no model
	specs := []ModelSpec{shape.Model}
	for _, sc := range shape.Scenarios {
		specs = append(specs, sc.Model)
	}
	for _, sp := range specs {
		if fp, err := sp.resolveFloorplan(); err == nil && fp.N() > fuzzMaxBlocks {
			return true
		}
	}
	return false
}

// FuzzHandlers drives steady, invert, sweep and JSON-transient bodies
// through Server.Handler(). Every input is answered within fuzzDeadline
// without a panic; a body that is not JSON answers 4xx; the only 5xx is
// the "encoding response" 500 of an unencodable reply, or a 504 under the
// request's own timeout_ms; and every 200 body is byte for byte
// encoding/json's encoding of itself decoded into the endpoint's exported
// type, which holds the fast-path encoder to encoding/json.
func FuzzHandlers(f *testing.F) {
	for _, row := range corpusRows() {
		for k, e := range fuzzPaths {
			if row.path == e.path && row.ctype == "" && row.body != "" && len(row.body) <= fuzzMaxBody {
				f.Add(uint8(k), row.body)
			}
		}
	}
	oil := `{"floorplan":"ev6","package":"oil-silicon","rconv":1e-320}`
	f.Add(uint8(0), `{"model":`+oil+`,"power":{"IntReg":1}}`)
	f.Add(uint8(0), `{"model":{"floorplan":"ev6","ambient_c":1e308},"power":{"IntReg":1}}`)
	f.Add(uint8(0), `{"model":{"flp":"a< >\t1e-3\t1e-3\t0\t0\nb&\t1e-3\t1e-3\t1e-3\t0\n"},"power":{"a< >":1e-7}}`)
	f.Add(uint8(1), strings.Replace(corpusInvert("60"), corpusModel, oil, 1))
	f.Add(uint8(1), `{"model":`+corpusModel+`,"observed_c":{"IntReg":50},"lambda":-1}`)
	f.Add(uint8(2), `{"scenarios":[{"model":`+oil+`,"power":{"IntReg":1}},{"model":{"floorplan":"grid:4x4"},"trace":{"names":["c0_0"],"interval":1e-3,"rows":[[1],[2]]}}]}`)
	f.Add(uint8(3), `{"model":{"floorplan":"ev6","rconv":1e-320},"trace":`+corpusTrace+`}`)
	f.Add(uint8(3), `{"model":{"floorplan":"grid:2x2"},"trace":{"names":["c1_1"],"interval":1e-9,"rows":[[5e-324],[1e21]]},"max_points":1}`)

	h := New(Config{}).Handler()
	f.Fuzz(func(t *testing.T, endpoint uint8, body string) {
		e := fuzzPaths[int(endpoint)%len(fuzzPaths)]
		if fuzzTooLarge([]byte(body)) {
			t.Skip("model past the block limit")
		}
		req := httptest.NewRequest(http.MethodPost, e.path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			h.ServeHTTP(rec, req)
		}()
		select {
		case <-done:
		case <-time.After(fuzzDeadline):
			t.Fatalf("%s: no answer within %v", e.path, fuzzDeadline)
		}
		code, out := rec.Code, rec.Body.Bytes()
		switch {
		case !json.Valid([]byte(body)) && (code < 400 || code >= 500):
			t.Fatalf("%s: malformed body answered %d: %.300s", e.path, code, out)
		case code == http.StatusOK:
			if err := reencodes(out, e.resp()); err != nil {
				t.Fatalf("%s: 200 body: %v: %.300s", e.path, err, out)
			}
		case code >= 500:
			var er errorResponse
			_ = json.Unmarshal(out, &er)
			encoding := code == http.StatusInternalServerError && strings.HasPrefix(er.Error, "encoding response: ")
			var budget struct {
				TimeoutMS int `json:"timeout_ms"`
			}
			_ = json.Unmarshal([]byte(body), &budget)
			deadline := code == http.StatusGatewayTimeout && budget.TimeoutMS > 0
			if !encoding && !deadline {
				t.Fatalf("%s: answered %d: %.300s", e.path, code, out)
			}
		}
	})
}
