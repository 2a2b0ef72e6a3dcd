package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/url"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/hotspot"
	"repro/internal/service"
	"repro/internal/trace"
	"repro/internal/tstore"
)

// The persist-query workload: one replica with a telemetry store, a writer
// streaming EV6 ptraces persisted under fresh run names, and beside it a
// reader querying runs the writer has already had acknowledged.
var persistSpec = service.ModelSpec{Floorplan: "ev6", Package: "oil-silicon"}

const (
	persistTraces   = 4       // distinct ptraces; run i replays trace i mod 4
	persistRows     = 30000   // rows per ptrace (0.1 s of simulated time)
	persistInterval = 3.33e-6 // s: the paper's IR-camera sampling interval
	persistPoints   = 50      // max_points of the JSON reply
	queryBucketNs   = 1_000_000
	// rssRuns is the number of persisted runs, counted from the set-up,
	// up to which peak_rss_mb is sampled: about 10 s of writing on the
	// baseline host, so the measured phase reaches it.
	rssRuns = 60
)

// persistTrace is one generated ptrace with its reference replay.
type persistTrace struct {
	body  []byte
	trace *trace.PowerTrace // the rows body encodes
	pts   []hotspot.TracePoint
	times []int64    // store timestamps of pts
	full  [][]bucket // per block: the 1 ms buckets of the whole run

	served *service.TransientResponse // the last reply to a write of it, as checked
}

// bucket mirrors a tstore rollup bucket, folded row by row in time order.
type bucket struct {
	start, count  int64
	min, max, sum float64
}

// fold aggregates time-ordered rows into g-aligned buckets exactly as the
// store does (the first row initializes the sum), brute force.
func fold(times []int64, vals func(k int) float64, lo, hi int, g int64) []bucket {
	var out []bucket
	for k := lo; k < hi; k++ {
		t, v := times[k], vals(k)
		start := t - t%g
		if n := len(out); n > 0 && out[n-1].start == start {
			b := &out[n-1]
			b.min = math.Min(b.min, v)
			b.max = math.Max(b.max, v)
			b.sum += v
			b.count++
			continue
		}
		out = append(out, bucket{start: start, count: 1, min: v, max: v, sum: v})
	}
	return out
}

// persistState is what the writer and reader share: the runs acknowledged
// so far and the bucket split of the queries answered.
type persistState struct {
	mu    sync.Mutex
	acked []int

	// lastQuery is the last served reply per range kind (whole run,
	// sub-range), as checked; only the reader loop writes it.
	lastQuery [2]*service.QueryResponse

	rollupBuckets atomic.Int64
	rawBuckets    atomic.Int64
	queries       atomic.Int64
	runs          atomic.Int64
}

func buildPersist(env *env, st *stack) (*instance, error) {
	rng := rand.New(rand.NewSource(env.seed))
	m, err := compile(persistSpec)
	if err != nil {
		return nil, err
	}
	names := m.Floorplan().Names()
	traces := make([]*persistTrace, persistTraces)
	for k := range traces {
		if traces[k], err = newPersistTrace(rng, m, names); err != nil {
			return nil, err
		}
	}
	fp, err := persistSpec.Fingerprint()
	if err != nil {
		return nil, err
	}
	tag := fmt.Sprintf("s%d", env.seed)
	wantRows := int64((persistRows + 1) * len(names))
	state := &persistState{}

	writeCall := func(i int) *call {
		tr := traces[i%len(traces)]
		run := runName(tag, i)
		q := url.Values{"floorplan": {persistSpec.Floorplan}, "package": {persistSpec.Package},
			"max_points": {strconv.Itoa(persistPoints)}, "persist": {run}}
		return &call{class: "write", key: fp, method: "POST", path: "/v1/transient?" + q.Encode(),
			ctype: "text/plain", body: tr.body, steps: persistRows,
			check: func(b []byte) (int64, error) {
				var resp service.TransientResponse
				if err := json.Unmarshal(b, &resp); err != nil {
					return 0, err
				}
				if err := checkTransient(&resp, names, tr.pts); err != nil {
					return 0, err
				}
				if resp.Persist != run || resp.PersistedRows != wantRows || resp.PersistPending {
					return 0, fmt.Errorf("persist %q rows %d pending %v, want %q rows %d",
						resp.Persist, resp.PersistedRows, resp.PersistPending, run, wantRows)
				}
				state.mu.Lock()
				state.acked = append(state.acked, i)
				state.mu.Unlock()
				state.runs.Add(1)
				tr.served = &resp
				return resp.PersistedRows, nil
			}}
	}

	qrng := rand.New(rand.NewSource(env.seed ^ 0x5eed))
	queryCall := func(i int) *call {
		state.mu.Lock()
		run := state.acked[qrng.Intn(len(state.acked))]
		state.mu.Unlock()
		b := qrng.Intn(len(names))
		from, to := queryRange(qrng, i, traces[0])
		return queryCallFor(state, traces[run%len(traces)], runName(tag, run)+"/"+names[b], b, from, to)
	}

	in := &instance{st: st}
	in.loops = []*loop{
		env.newLoop(st.base, writeCall),
		env.newLoop(st.base, queryCall),
	}
	in.counters = func() map[string]int64 {
		return map[string]int64{
			"rollup_buckets": state.rollupBuckets.Load(),
			"raw_buckets":    state.rawBuckets.Load(),
			"queries":        state.queries.Load(),
			"runs":           state.runs.Load(),
		}
	}
	// The store keeps memory for every series it holds, so the resident set
	// grows with the runs persisted. Sampling it up to a fixed number of
	// runs, not for the whole phase, keeps a faster writer from reading as
	// a larger one.
	in.rssFull = func() bool { return state.runs.Load() >= rssRuns }
	in.probe = func(p *probes) error { return probePersist(p, env, st, traces, m, state, tag) }
	// The first run compiles the model, factors the step operator and gives
	// the reader something to query.
	if err := warmUp(in.loops[0], writeCall(0)); err != nil {
		return in, err
	}
	in.loops[0].i = 1
	return in, warmUp(in.loops[1], queryCall(0))
}

// runName is the persist run name of writer request i.
func runName(tag string, i int) string { return fmt.Sprintf("%s-run%d", tag, i) }

// queryRange is the i-th query's range: the whole run, bucket-aligned, for
// even i; for odd i an unaligned sub-range, whose clipped edge buckets the
// store recomputes from raw rows while whole interior buckets come from
// rollups.
func queryRange(rng *rand.Rand, i int, tr *persistTrace) (from, to int64) {
	span := (tr.times[len(tr.times)-1]/queryBucketNs + 1) * queryBucketNs
	if i%2 == 0 {
		return 0, span
	}
	from = 1 + rng.Int63n(span/3)
	return from, from + span/4 + rng.Int63n(span/3)
}

// rangeKind is 0 for a whole-run query range and 1 for a sub-range, which
// never starts at 0.
func rangeKind(from int64) int {
	if from == 0 {
		return 0
	}
	return 1
}

// newPersistTrace draws a ptrace (per-block base power with per-row noise,
// three decimals so the text round-trips exactly) and replays its reference.
func newPersistTrace(rng *rand.Rand, m *hotspot.Model, names []string) (*persistTrace, error) {
	tr, err := trace.New(names, persistInterval)
	if err != nil {
		return nil, err
	}
	base := make([]float64, len(names))
	for b := range base {
		base[b] = 0.3 + 2.7*rng.Float64()
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# interval %s s\n", strconv.FormatFloat(persistInterval, 'g', -1, 64))
	for b, n := range names {
		if b > 0 {
			buf.WriteByte('\t')
		}
		buf.WriteString(n)
	}
	buf.WriteByte('\n')
	row := make([]float64, len(names))
	for k := 0; k < persistRows; k++ {
		for b := range row {
			row[b] = math.Round(base[b]*(0.7+0.6*rng.Float64())*1000) / 1000
			if b > 0 {
				buf.WriteByte('\t')
			}
			buf.WriteString(strconv.FormatFloat(row[b], 'g', -1, 64))
		}
		buf.WriteByte('\n')
		if err := tr.Append(row); err != nil {
			return nil, err
		}
	}
	pts, err := m.NewSession().ReplayRows(m.AmbientState(), tr.Reader())
	if err != nil {
		return nil, err
	}
	pt := &persistTrace{body: buf.Bytes(), trace: tr, pts: pts, times: make([]int64, len(pts))}
	for k, p := range pts {
		pt.times[k] = tstore.Nanos(p.Time)
	}
	for b := range names {
		pt.full = append(pt.full, fold(pt.times, func(k int) float64 { return pts[k].BlockC[b] }, 0, len(pts), queryBucketNs))
	}
	return pt, nil
}

// queryCallFor is one range query at 1 ms downsampling with its brute-force
// reference.
func queryCallFor(state *persistState, tr *persistTrace, series string, block int, from, to int64) *call {
	q := url.Values{"series": {series}, "from_ns": {strconv.FormatInt(from, 10)},
		"to_ns": {strconv.FormatInt(to, 10)}, "downsample_ns": {strconv.FormatInt(queryBucketNs, 10)}}
	return &call{class: "query", method: "GET", path: "/v1/query?" + q.Encode(),
		check: func(b []byte) (int64, error) {
			var resp service.QueryResponse
			if err := json.Unmarshal(b, &resp); err != nil {
				return 0, err
			}
			want := tr.full[block]
			if from != 0 {
				lo, _ := slices.BinarySearch(tr.times, from)
				hi, _ := slices.BinarySearch(tr.times, to)
				want = fold(tr.times, func(k int) float64 { return tr.pts[k].BlockC[block] }, lo, hi, queryBucketNs)
			}
			if err := checkBuckets(resp.Buckets, want); err != nil {
				return 0, fmt.Errorf("%s [%d,%d): %w", series, from, to, err)
			}
			if resp.RollupBuckets+resp.RawBuckets != len(want) {
				return 0, fmt.Errorf("rollup %d + raw %d buckets, want %d", resp.RollupBuckets, resp.RawBuckets, len(want))
			}
			state.rollupBuckets.Add(int64(resp.RollupBuckets))
			state.rawBuckets.Add(int64(resp.RawBuckets))
			state.queries.Add(1)
			state.lastQuery[rangeKind(from)] = &resp
			return 0, nil
		}}
}

func checkBuckets(got []trace.TelemetryBucket, want []bucket) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d buckets, reference %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.StartNs != w.start || g.Count != w.count {
			return fmt.Errorf("bucket %d at %d×%d, reference %d×%d", i, g.StartNs, g.Count, w.start, w.count)
		}
		for _, c := range [...]struct {
			what      string
			got, want float64
		}{{"min", g.Min, w.min}, {"max", g.Max, w.max}, {"sum", g.Sum, w.sum}, {"mean", g.Mean, w.sum / float64(w.count)}} {
			if err := checkClose(fmt.Sprintf("bucket %d %s", i, c.what), c.got, c.want); err != nil {
				return err
			}
		}
	}
	return nil
}

// probePersist replays the first writes and queries as direct calls: the
// trace decoder, the model path, the replay, persisting into a store of the
// probe's own, the store query, and the encodes of the responses served.
func probePersist(p *probes, env *env, st *stack, traces []*persistTrace, m *hotspot.Model, state *persistState, tag string) error {
	dir, err := os.MkdirTemp(env.tmp, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := tstore.Open(dir, tstore.Options{})
	if err != nil {
		return err
	}
	defer store.Close()
	names := m.Floorplan().Names()
	var written []*persistTrace // the traces whose writes were served
	for _, tr := range traces {
		if tr.served != nil {
			written = append(written, tr)
		}
	}
	err = p.run(maxProbes, func(i int) error {
		tr := written[i%len(written)]
		p.begin("write")
		// A streamed transient's request decode is the trace decoder, which
		// the replica drains one row at a time into one buffer.
		var err error
		t := us(func() {
			var dec *trace.Decoder
			if dec, err = trace.NewDecoder(bytes.NewReader(tr.body), trace.DecoderOptions{}); err != nil {
				return
			}
			row := make([]float64, len(dec.Names()))
			for err == nil {
				err = dec.Next(row)
			}
			if err == io.EOF {
				err = nil
			}
		})
		if err != nil {
			return err
		}
		p.part("service.decode_us", t)
		p.add("trace.decode_ns_per_row", t*1e3/persistRows)
		cm, err := p.modelPath(persistSpec)
		if err != nil {
			return err
		}
		se := cm.Session()
		var pts []hotspot.TracePoint
		t = us(func() { pts, err = se.ReplayRows(cm.Model.AmbientState(), tr.trace.Reader()) })
		cm.Release(se)
		if err != nil {
			return err
		}
		p.physics(t)
		p.add("hotspot.replay_ms_per_request", t/1e3)
		w := tstore.NewWriter(store, fmt.Sprintf("probe-run%d", i))
		t = us(func() {
			if err = hotspot.EmitTracePoints(w, "", names, pts); err == nil {
				err = w.Flush()
			}
		})
		if err != nil {
			return err
		}
		p.part("tstore.persist_us", t)
		p.add("tstore.persist_ms_per_run", t/1e3)
		return p.encode(tr.served)
	})
	if err != nil {
		return err
	}
	qrng := rand.New(rand.NewSource(env.seed ^ 0x9e7))
	state.mu.Lock()
	acked := append([]int(nil), state.acked...)
	state.mu.Unlock()
	return p.run(maxProbes, func(i int) error {
		run := acked[qrng.Intn(len(acked))]
		series := runName(tag, run) + "/" + names[qrng.Intn(len(names))]
		from, to := queryRange(qrng, i, traces[0])
		served := state.lastQuery[rangeKind(from)]
		if served == nil {
			return fmt.Errorf("query kind %d never served", rangeKind(from))
		}
		p.begin("query")
		path := queryCallFor(state, traces[run%len(traces)], series, 0, from, to).path
		var err error
		p.part("service.decode_us", us(func() {
			var u *url.URL
			if u, err = url.ParseRequestURI(path); err == nil {
				_ = u.Query()
			}
		}))
		if err != nil {
			return err
		}
		p.part("tstore.query_us", us(func() { _, err = st.store.Query(series, from, to, queryBucketNs) }))
		if err != nil {
			return err
		}
		p.admit()
		return p.encode(served)
	})
}
