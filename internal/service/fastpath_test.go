package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/hotspot"
	"repro/internal/trace"
)

// hostileNames exercise every escaping rule of encoding/json: HTML-unsafe
// bytes, quotes and backslashes, U+2028/U+2029, control bytes, non-ASCII
// and invalid UTF-8. Their byte order differs from their escaped order.
var hostileNames = []string{
	`a<b>`, `x&y`, `q"uote`, `back\slash`, "ls\u2028ps\u2029", "ctl\x01\x1f\x7f", "bs\x08ff\x0c",
	"nl\nr\rt\t", "café", "日本", "\xff\xfeinvalid", "\xed\xa0\x80half", "emoji😀", "Z", "a", "_", "~",
}

// rowFloorplan lays named blocks out in one row of 1 mm squares.
func rowFloorplan(t testing.TB, names []string) *floorplan.Floorplan {
	t.Helper()
	blocks := make([]floorplan.Block, len(names))
	for i, n := range names {
		blocks[i] = floorplan.Block{Name: n, Width: 1e-3, Height: 1e-3, X: float64(i) * 1e-3}
	}
	fp, err := floorplan.New(blocks)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// randomFloorplan is an inline floorplan of 1–40 blocks with names drawn
// from hostile fragments.
func randomFloorplan(t testing.TB, rng *rand.Rand) *floorplan.Floorplan {
	frags := append([]string{"b", "0", "é", "<", "\x00", "\u2029"}, hostileNames...)
	seen := map[string]bool{}
	var names []string
	for n := 1 + rng.Intn(40); len(names) < n; {
		var sb strings.Builder
		for k := 1 + rng.Intn(3); k > 0; k-- {
			sb.WriteString(frags[rng.Intn(len(frags))])
		}
		if name := sb.String(); !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	return rowFloorplan(t, names)
}

// specialFloats sit on encoding/json's format boundaries, at the ends of the
// float64 range, and need 17 significant digits.
var specialFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-320, 2.2250738585072014e-308,
	1e-7, -1e-7, 1e-6, math.Nextafter(1e-6, 0), 1e20, 1e21, math.Nextafter(1e21, 0), -1e21,
	1.7976931348623157e308, 0.30000000000000004, 123456789.12345679, 45.00000000000001, 318.15,
}

func diffValue(rng *rand.Rand) float64 {
	switch rng.Intn(3) {
	case 0:
		return specialFloats[rng.Intn(len(specialFloats))]
	case 1:
		if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
			return v
		}
		return rng.NormFloat64()
	default:
		return (2*rng.Float64() - 1) * math.Pow(10, float64(rng.Intn(60)-30))
	}
}

func diffValues(rng *rand.Rand, n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = diffValue(rng)
	}
	return vs
}

// diffString is a cache state, persist name or sweep error.
func diffString(rng *rand.Rand) string {
	return []string{"hit", "miss", "", "runs/a&b", `bad "x" <y>`, "\u2028\xff"}[rng.Intn(6)]
}

// randomReplies builds one reply of every kind over ix from random values.
func randomReplies(rng *rand.Rand, ix *blockIndex) []reply {
	n := len(ix.names)
	points := make([]hotspot.TracePoint, rng.Intn(4))
	for i := range points {
		points[i] = hotspot.TracePoint{Time: diffValue(rng), BlockC: diffValues(rng, n)}
	}
	results := make([]sweepResult, 1+rng.Intn(5))
	for i := range results {
		r := &results[i]
		r.cache, r.err = diffString(rng), diffString(rng)
		if rng.Intn(3) > 0 {
			r.ix, r.blockC = ix, diffValues(rng, n)
			if rng.Intn(2) == 0 {
				r.peakC = diffValues(rng, n)
			}
		}
	}
	return []reply{
		&steadyReply{ix: ix, blockC: diffValues(rng, n), hottest: rng.Intn(n), hottestC: diffValue(rng),
			spreadC: diffValue(rng), cache: diffString(rng), solveMS: diffValue(rng)},
		&transientReply{ix: ix, points: points, final: diffValues(rng, n), peak: diffValues(rng, n),
			steps: rng.Intn(1000), cache: diffString(rng), solveMS: diffValue(rng), persist: diffString(rng),
			persistedRows: int64(rng.Intn(3)), persistPending: rng.Intn(2) == 0},
		&sweepReply{results: results, solveMS: diffValue(rng)},
		&invertReply{ix: ix, powerW: diffValues(rng, n), totalW: diffValue(rng), cache: diffString(rng),
			solveMS: diffValue(rng)},
	}
}

// diffFloorplans are the floorplans the encoder differential runs on.
func diffFloorplans(t *testing.T, rng *rand.Rand) map[string]*floorplan.Floorplan {
	fps := map[string]*floorplan.Floorplan{
		"ev6":        floorplan.EV6(),
		"athlon":     floorplan.Athlon(),
		"grid:64x64": floorplan.GridDie(16e-3, 16e-3, 64, 64),
		"hostile":    rowFloorplan(t, hostileNames),
	}
	for i := 0; i < 8; i++ {
		fps[fmt.Sprintf("inline-%d", i)] = randomFloorplan(t, rng)
	}
	return fps
}

// TestReplyEncodingMatchesEncodingJSON: every reply kind appends exactly the
// bytes json.Encoder writes for its exported response, not rounded, for
// random and boundary values and hostile block names.
func TestReplyEncodingMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, fp := range diffFloorplans(t, rng) {
		ix := newBlockIndex(fp)
		rounds := 20
		if fp.N() > 1000 {
			rounds = 2
		}
		for round := 0; round < rounds; round++ {
			for _, r := range randomReplies(rng, ix) {
				var want bytes.Buffer
				if err := json.NewEncoder(&want).Encode(r.exported()); err != nil {
					t.Fatalf("%s: encoding/json: %v", name, err)
				}
				var jw jsonWriter
				if r.appendJSON(&jw); jw.bad {
					t.Fatalf("%s %T: fast path refused finite values", name, r)
				}
				if !bytes.Equal(jw.b, want.Bytes()) {
					t.Fatalf("%s %T: bytes differ at %d:\n got %.200q\nwant %.200q",
						name, r, firstDiff(jw.b, want.Bytes()), jw.b, want.Bytes())
				}
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestReplyNonFiniteFallsBack: a reply holding NaN or ±Inf anywhere is
// refused by the fast path and fails with encoding/json's own error text,
// the body of today's 500.
func TestReplyNonFiniteFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ix := newBlockIndex(floorplan.EV6())
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for round := 0; round < 30; round++ {
			for _, r := range randomReplies(rng, ix) {
				poison(rng, ix, r, bad)
				var jw jsonWriter
				if r.appendJSON(&jw); !jw.bad {
					t.Fatalf("%T with %g: fast path accepted it", r, bad)
				}
				wantErr := json.NewEncoder(new(bytes.Buffer)).Encode(r.exported())
				gotErr := encodeJSON(new(bytes.Buffer), r)
				if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
					t.Fatalf("%T with %g: error %v, encoding/json %v", r, bad, gotErr, wantErr)
				}
			}
		}
	}
}

// poison overwrites one value of r with bad.
func poison(rng *rand.Rand, ix *blockIndex, r reply, bad float64) {
	switch r := r.(type) {
	case *steadyReply:
		switch rng.Intn(4) {
		case 0:
			r.blockC[rng.Intn(len(r.blockC))] = bad
		case 1:
			r.hottestC = bad
		case 2:
			r.spreadC = bad
		default:
			r.solveMS = bad
		}
	case *transientReply:
		switch rng.Intn(3) {
		case 0:
			r.final[rng.Intn(len(r.final))] = bad
		case 1:
			r.peak[rng.Intn(len(r.peak))] = bad
		default:
			p := hotspot.TracePoint{Time: 1, BlockC: make([]float64, len(ix.names))}
			p.BlockC[rng.Intn(len(p.BlockC))] = bad
			r.points = append(r.points, p)
		}
	case *sweepReply:
		res := &r.results[rng.Intn(len(r.results))]
		res.ix, res.blockC = ix, make([]float64, len(ix.names))
		res.blockC[rng.Intn(len(res.blockC))] = bad
	case *invertReply:
		if rng.Intn(2) == 0 {
			r.totalW = bad
		} else {
			r.powerW[rng.Intn(len(r.powerW))] = bad
		}
	}
}

// TestBlockMapAppendAllocationFree: appending a 4096-entry block map into a
// buffer with room allocates nothing.
func TestBlockMapAppendAllocationFree(t *testing.T) {
	ix := newBlockIndex(floorplan.GridDie(16e-3, 16e-3, 64, 64))
	vals := diffValues(rand.New(rand.NewSource(3)), len(ix.names))
	w := jsonWriter{b: make([]byte, 0, 1<<20)}
	if allocs := testing.AllocsPerRun(20, func() {
		w.b = w.b[:0]
		w.blockMap(ix, vals)
	}); allocs != 0 {
		t.Fatalf("%.0f allocations per 4096-entry block map, want 0", allocs)
	}
	if w.bad || len(w.b) == 0 {
		t.Fatal("block map not written")
	}
}

// reencodes reports whether body is byte for byte what encoding/json writes
// for body decoded into v: the invariant every fast-path 200 keeps.
func reencodes(body []byte, v any) error {
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("decode: %v", err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		return fmt.Errorf("re-encode: %v", err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		return fmt.Errorf("body differs from encoding/json at byte %d", firstDiff(body, want.Bytes()))
	}
	return nil
}

// TestServedRepliesMatchEncodingJSON serves every fast-path reply kind on
// EV6, Athlon, grid:64x64 and inline floorplans with hostile names, and
// holds each 200 body to encoding/json's encoding of its exported type.
func TestServedRepliesMatchEncodingJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	flp := "a<b>\t1e-3\t2e-3\t0\t0\nq\"u\\o\t1e-3\t2e-3\t1e-3\t0\ncafé\t1e-3\t2e-3\t2e-3\t0\nctl\x01\t1e-3\t2e-3\t3e-3\t0\nZ&\t1e-3\t2e-3\t4e-3\t0\n"
	fpFLP, err := floorplan.Parse(strings.NewReader(flp))
	if err != nil {
		t.Fatal(err)
	}
	specs := map[string]struct {
		spec  ModelSpec
		names []string
	}{
		"ev6":        {ModelSpec{Floorplan: "ev6", Package: "oil-silicon"}, floorplan.EV6().Names()},
		"athlon":     {ModelSpec{Floorplan: "athlon", Secondary: true}, floorplan.Athlon().Names()},
		"grid:64x64": {ModelSpec{Floorplan: "grid:64x64", Package: "oil-silicon"}, nil},
		"inline":     {ModelSpec{FLP: flp, Package: "air-sink"}, fpFLP.Names()},
	}
	rng := rand.New(rand.NewSource(4))
	for name, c := range specs {
		powered := c.names
		if powered == nil {
			powered = []string{"c0_0", "c31_31", "c63_2"}
		}
		power := map[string]float64{}
		for _, n := range powered {
			power[n] = 5 * rng.Float64()
		}
		tr := &TraceSpec{Names: powered, Interval: 1e-3}
		for k := 0; k < 4; k++ {
			row := make([]float64, len(powered))
			for i := range row {
				row[i] = 3 * rng.Float64()
			}
			tr.Rows = append(tr.Rows, row)
		}
		check := func(path string, body any, v any) {
			t.Helper()
			resp, raw := postJSON(t, ts.URL+path, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: status %d: %.300s", name, path, resp.StatusCode, raw)
			}
			if err := reencodes(raw, v); err != nil {
				t.Fatalf("%s %s: %v", name, path, err)
			}
		}
		check("/v1/steady", SteadyRequest{Model: c.spec, Power: power}, new(SteadyResponse))
		check("/v1/transient", TransientRequest{Model: c.spec, Trace: tr, MaxPoints: 3}, new(TransientResponse))
		check("/v1/sweep", SweepRequest{Scenarios: []SweepScenario{
			{Model: c.spec, Power: power}, {Model: c.spec, Trace: tr}, {Model: c.spec},
		}}, new(SweepResponse))
		if c.names != nil { // a grid:64x64 inversion is 4096 solves
			observed := map[string]float64{}
			for _, n := range c.names {
				observed[n] = 50 + 10*rng.Float64()
			}
			check("/v1/invert", InvertRequest{Model: c.spec, ObservedC: observed}, new(InvertResponse))
		}
	}

	// Block names with invalid UTF-8 only arrive through a streamed
	// transient's flp query parameter. They decode to U+FFFD, so the body
	// cannot re-encode to itself; the reply-level differential holds their
	// bytes, and here they must be escaped as encoding/json escapes them.
	q := url.Values{"flp": {"\xff\xfe\t1e-3\t1e-3\t0\t0\nok\t1e-3\t1e-3\t1e-3\t0\n"}, "max_points": {"2"}}
	resp, err := http.Post(ts.URL+"/v1/transient?"+q.Encode(), "text/plain", strings.NewReader("# interval 1e-3 s\nok\n1\n2\n"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed invalid-UTF-8 flp: status %d: %s", resp.StatusCode, buf.Bytes())
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(`{"blocks":["\ufffd\ufffd","ok"],`)) ||
		!bytes.Contains(buf.Bytes(), []byte(`"final_c":{"ok":`)) {
		t.Fatalf("invalid UTF-8 name not escaped or sorted as encoding/json does: %.300s", buf.Bytes())
	}
}

// failingRows fails its replay at row `at` (1-based).
type failingRows struct {
	trace.RowReader
	n, at int
}

func (f *failingRows) Next(dst []float64) error {
	if f.n++; f.n == f.at {
		return errors.New("row source failed")
	}
	return f.RowReader.Next(dst)
}

// TestReplayFinalPeakMatchesPoints: hotspot.ReplayFinalPeak, which the sweep
// serves from, equals finalAndPeak over ReplayBatchResults' points bit for
// bit, and fails each job with the same error text, at 1, 2 and 4 workers
// and lockstep widths 1–16, over traces of mixed lengths, an empty trace,
// a job failing mid-replay and one cooling from a hot start, on two
// models.
func TestReplayFinalPeakMatchesPoints(t *testing.T) {
	var models []*hotspot.Model
	for _, spec := range []ModelSpec{{Floorplan: "ev6"}, {Floorplan: "ev6", Package: "oil-silicon"}} {
		cfg, err := spec.config()
		if err != nil {
			t.Fatal(err)
		}
		m, err := hotspot.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	names := models[0].Floorplan().Names()
	rng := rand.New(rand.NewSource(5))
	for width := 1; width <= 16; width++ {
		// Jobs past the width run on the second model; rows have mixed
		// lengths. Job 1 is empty once the width allows, job 2 fails at
		// its third row, and job 3 starts hot and unpowered, so blocks
		// peak at t = 0.
		type jobSpec struct {
			m      *hotspot.Model
			tr     *trace.PowerTrace
			failAt int
			hot    bool
		}
		specs := make([]jobSpec, width+2)
		for k := range specs {
			tr, err := trace.New(names, 1e-3)
			if err != nil {
				t.Fatal(err)
			}
			rows := 1 + rng.Intn(30)
			if k == 1 && width > 1 {
				rows = 0
			}
			for r := 0; r < rows; r++ {
				row := make([]float64, len(names))
				for i := range row {
					if k != 3 { // the hot job runs unpowered
						row[i] = 4 * rng.Float64()
					}
				}
				if err := tr.Append(row); err != nil {
					t.Fatal(err)
				}
			}
			specs[k] = jobSpec{m: models[0], tr: tr}
			if k >= width {
				specs[k].m = models[1]
			}
			if k == 2 && rows >= 3 {
				specs[k].failAt = 3
			}
			specs[k].hot = k == 3
		}
		jobs := func() []hotspot.ReplayJob {
			out := make([]hotspot.ReplayJob, len(specs))
			for k, sp := range specs {
				var rows trace.RowReader = sp.tr.Reader()
				if sp.failAt > 0 {
					rows = &failingRows{RowReader: rows, at: sp.failAt}
				}
				temps := sp.m.AmbientState()
				if sp.hot {
					for i := range temps {
						temps[i] += 40 + float64(i%7)
					}
				}
				out[k] = hotspot.ReplayJob{Model: sp.m, Temps: temps, Rows: rows}
			}
			return out
		}
		for _, workers := range []int{1, 2, 4} {
			pts, wantErrs := hotspot.ReplayBatchResults(jobs(), workers)
			final, peak, errs := hotspot.ReplayFinalPeak(jobs(), workers)
			for k := range specs {
				if fmt.Sprint(errs[k]) != fmt.Sprint(wantErrs[k]) {
					t.Fatalf("width %d workers %d job %d: error %v, want %v", width, workers, k, errs[k], wantErrs[k])
				}
				if wantErrs[k] != nil {
					if final[k] != nil || peak[k] != nil {
						t.Fatalf("width %d workers %d job %d: failed job kept vectors", width, workers, k)
					}
					continue
				}
				wantFinal, wantPeak := finalAndPeak(pts[k])
				if !sameBits(final[k], wantFinal) || !sameBits(peak[k], wantPeak) {
					t.Fatalf("width %d workers %d job %d: final/peak differ from the points' reduction", width, workers, k)
				}
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// resetFingerprintMemo empties the process-wide fingerprint memo.
func resetFingerprintMemo() {
	fingerprints.Lock()
	clear(fingerprints.m)
	fingerprints.Unlock()
}

func memoLen() int {
	fingerprints.Lock()
	defer fingerprints.Unlock()
	return len(fingerprints.m)
}

// TestFingerprintMemoMatchesConfig: memoized fingerprints equal the
// config's own, first call and repeat alike; −0 and +0 share one key; NaN
// and inline-flp specs are answered but never stored.
func TestFingerprintMemoMatchesConfig(t *testing.T) {
	resetFingerprintMemo()
	t.Cleanup(resetFingerprintMemo)
	negZero := math.Copysign(0, -1)
	specs := []ModelSpec{
		{}, {Floorplan: "ev6"}, {Floorplan: "athlon", Package: "oil-silicon", Direction: "left-to-right", Secondary: true},
		{Floorplan: "grid:8x8", Package: "water-sink", Rconv: 0.3, AmbientC: 30},
		{Floorplan: "ev6", Rconv: negZero, AmbientC: 40}, {Floorplan: "ev6", Rconv: 0, AmbientC: 40},
		{Floorplan: "ev6", AmbientC: math.NaN()},
		{FLP: "a\t1e-3\t1e-3\t0\t0\n"},
	}
	for _, sp := range specs {
		cfg, err := sp.config()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			got, err := sp.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if got != cfg.Fingerprint() {
				t.Fatalf("%+v call %d: memoized fingerprint differs from config().Fingerprint()", sp, i)
			}
		}
	}
	// {} and {ev6} name the same model but are different keys; the −0 and
	// +0 specs are one key.
	if n := memoLen(); n != 5 {
		t.Fatalf("memo holds %d specs, want 5 (NaN and inline flp unstored, ±0 one key)", n)
	}
	if _, err := (ModelSpec{Floorplan: "nope"}).Fingerprint(); err == nil {
		t.Fatal("unknown floorplan fingerprinted")
	}
	if _, err := (ModelSpec{Floorplan: "ev6", Package: "air-sink", Direction: strings.Repeat("d", 100)}).Fingerprint(); err != nil {
		t.Fatal(err)
	}
	if n := memoLen(); n != 5 {
		t.Fatalf("memo holds %d specs after an error and a long name, want 5", n)
	}
}

// TestFingerprintMemoCapAndRace: goroutines fingerprinting more distinct
// specs than the cap fill the memo to exactly the cap, every answer right
// whether stored or not. Under -race this is the memo's race check.
func TestFingerprintMemoCapAndRace(t *testing.T) {
	resetFingerprintMemo()
	t.Cleanup(resetFingerprintMemo)
	var specs []ModelSpec
	for nx := 1; nx <= 10; nx++ {
		for ny := 1; ny <= 10; ny++ {
			specs = append(specs, ModelSpec{Floorplan: fmt.Sprintf("grid:%dx%d", nx, ny)})
		}
	}
	want := make([]string, len(specs))
	for i, sp := range specs {
		cfg, err := sp.config()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = cfg.Fingerprint()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for k := range specs {
					i := (k + g*13) % len(specs)
					got, err := specs[i].Fingerprint()
					if err != nil || got != want[i] {
						t.Errorf("%+v: fingerprint %q, %v; want %q", specs[i], got, err, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := memoLen(); n != maxFingerprints {
		t.Fatalf("memo holds %d specs, want the cap %d", n, maxFingerprints)
	}
}
