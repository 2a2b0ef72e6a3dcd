// Command bench is the end-to-end serving benchmark: it hosts the real
// serving stack in-process on loopback listeners, drives it over at most two
// connections with seeded closed-loop traffic, checks every answer against a
// reference computed by direct calls into the layers, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics of a traced
// run). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload interactive -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -repeat 10 -seconds 20
//
// See bench/README.md for the workloads, the metrics and the baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// workload is one traffic mix over one stack shape.
type workload struct {
	name string
	// latClasses are the request classes timed by the latency metrics
	// (nil = all); physClasses those whose probed physics sets
	// physics_share.
	latClasses  []string
	physClasses []string
	stack       stackConfig
	build       func(env *env, st *stack) (*instance, error)
}

// workloads: why each exists is recorded in BENCHMARK.json and
// bench/README.md.
var workloads = []*workload{
	{
		// JSON, HTTP, routing and fingerprinting dominate; physics is ~1%.
		name:  "interactive",
		stack: stackConfig{replicas: 2, router: true},
		build: buildInteractive,
	},
	{
		// The lockstep batches and wide factor-solve kernels dominate.
		name:        "replay-grid64",
		latClasses:  []string{"sweep"},
		physClasses: []string{"sweep"},
		stack:       stackConfig{replicas: 1},
		build:       buildReplay,
	},
	{
		// Ingest and range queries contend for the store; latency is the
		// reader's.
		name:        "persist-query",
		latClasses:  []string{"query"},
		physClasses: []string{"write"},
		stack:       stackConfig{replicas: 1, store: true},
		build:       buildPersist,
	},
	{
		// Latency times the live-CPU grids, whose host time is mostly
		// co-simulation. The pulse grids answer in ~2 ms of which the 14
		// streamed-line wakeups are a large share; on a busy host those
		// double, and their p50 moved between 2.0 and 3.6 ms from run to run.
		name:        "dtm-grid",
		latClasses:  []string{"live"},
		physClasses: []string{"pulse", "live"},
		stack:       stackConfig{replicas: 1},
		build:       buildDTM,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// env is what a workload's build step needs besides the stack.
type env struct {
	seed int64
	root string    // repository root (inputs are read from under it)
	tmp  string    // scratch directory for stores, removed as they close
	rec  *recorder // nil when untraced
}

// newLoop builds a closed-loop client on its own single connection.
func (e *env) newLoop(base string, next func(i int) *call) *loop {
	var rt http.RoundTripper = newTransport()
	if e.rec != nil {
		rt = &spanTransport{rec: e.rec, next: rt}
	}
	return &loop{base: base, next: next, client: &http.Client{Transport: rt}}
}

// instance is one set-up of a workload: a running stack, its generated
// inputs with their references, and the clients that drive it.
type instance struct {
	st    *stack
	loops []*loop
	probe func(p *probes) error
	// counters, when set, reads the workload's own cumulative client-side
	// counters (read before and after the traced phase).
	counters func() map[string]int64
	// rssFull, when set, reports that the resident set has been sampled
	// long enough, before the measured phase ends.
	rssFull func() bool
}

// options are one run's settings. Only the workload, seed, length and
// tracing come from flags; the rest are fixed (tests shorten them).
type options struct {
	workload string
	seed     int64
	seconds  float64
	warmup   time.Duration // untimed closed-loop traffic before measuring
	setups   int           // fresh set-ups per process; setup_s is their median
	trace    bool
	root     string // repository root, where inputs are read
	work     string // stores under tmp/, the traced run's files under trace/<workload>/
}

// phase is the length of a measured phase.
func (o options) phase() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

func main() {
	o := options{warmup: 2 * time.Second, setups: 7, root: ".", work: ".bench_build"}
	var traceFlag, repeat int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured phase length (s)")
	flag.IntVar(&traceFlag, "trace", 0, "1: after the untraced phase, run a traced phase and report per-layer metrics")
	flag.IntVar(&repeat, "repeat", 0, "run every workload this many times, each in a fresh process, and print the spread")
	flag.Parse()
	o.trace = traceFlag != 0

	if repeat > 0 {
		if err := runRepeat(o, repeat); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	w := findWorkload(o.workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := runWorkload(w, o)
	if err == nil {
		err = res.complete(o.trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// endToEndNames are the end-to-end metrics every untraced run reports, the
// ones BENCHMARK.json lists. The latency metrics are printed but left out:
// their run-to-run spread on the baseline host exceeded the bound (see
// bench/README.md).
var endToEndNames = []string{"setup_s", "requests_per_s", "sim_steps_per_s", "peak_rss_mb"}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	lines []string // human-readable report, printed before the JSON line
}

func (r *result) line(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// complete reports a metric the contract requires that the run could not
// measure (a per-layer metric of a layer the traced phase never reached,
// for instance).
func (r *result) complete(traced bool) error {
	want := endToEndNames
	if traced {
		want = perLayerNames
	}
	for _, name := range want {
		if _, ok := r.Metrics[name]; !ok {
			return fmt.Errorf("metric %s not measured", name)
		}
	}
	return nil
}

func (r *result) print(f *os.File) {
	for _, l := range r.lines {
		fmt.Fprintln(f, l)
	}
	b, _ := json.Marshal(r)
	fmt.Fprintln(f, string(b))
}

// runWorkload sets the workload up (several times, timing each), warms it,
// measures it untraced, and with tracing on measures it again traced and
// probes each layer.
func runWorkload(w *workload, o options) (*result, error) {
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	e := &env{seed: o.seed, root: o.root, tmp: filepath.Join(o.work, "tmp"), rec: rec}
	cfg := w.stack
	cfg.workDir = e.tmp

	// Each set-up starts alone, from a collected heap: the previous stack is
	// closed first, so two never coexist and no set-up pays for another's
	// garbage.
	var setupS []float64
	var in *instance
	for k := 0; k < max(o.setups, 1); k++ {
		if in != nil {
			if err := in.st.close(); err != nil {
				return nil, err
			}
			in = nil
		}
		runtime.GC()
		t0 := time.Now()
		cand, err := setUp(w, e, cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		in = cand
	}
	defer in.st.close()

	total := newTally()
	warm := runPhase(in.loops, o.warmup)
	total.mismatch += warm.mismatch
	if warm.firstErr != "" {
		total.firstErr = "warm-up: " + warm.firstErr
	}
	// Memory freed by the set-ups and the warm-up goes back to the OS, so the
	// resident set sampled during the measured phase is what the running
	// stack and the benchmark's own inputs and references hold.
	debug.FreeOSMemory()
	stopRSS := make(chan struct{})
	rssPeak := sampleRSS(stopRSS, in.rssFull)
	measured := runPhase(in.loops, o.phase())
	close(stopRSS)
	total.merge(measured)
	rss := <-rssPeak
	if rss <= 0 {
		return nil, fmt.Errorf("resident set size not readable")
	}

	res := &result{Metrics: map[string]metric{}}
	res.line("workload %s  seed %d  %gs measured after %v warm-up  GOMAXPROCS %d", w.name, o.seed, o.seconds, o.warmup, readRuntime().gomaxprocs)
	e2e := endToEnd(w, measured, setupS, rss, res)

	// The result carries the contract's metrics: end-to-end from the
	// untraced phase, or per-layer from the traced one.
	want, have := endToEndNames, layerSet(e2e)
	if o.trace {
		layers, err := traceRun(w, o, in, rec, e2e, res)
		if err != nil {
			return nil, err
		}
		total.merge(layers.tally)
		want, have = perLayerNames, layers.metrics
	}
	for _, name := range want {
		if m, ok := have[name]; ok {
			res.Metrics[name] = m
		}
	}
	res.Attempted = total.attempted
	res.Failed = total.failed()
	res.Correct = total.mismatch == 0
	res.line("attempted %d  failed %d (non-200 %d, transport %d, mismatch %d)  fail_ratio %.6f",
		total.attempted, total.failed(), total.non200, total.transport, total.mismatch,
		float64(total.failed())/float64(max(total.attempted, 1)))
	if total.firstErr != "" {
		res.line("first failure: %s", total.firstErr)
	}
	return res, nil
}

// setUp is one fresh set-up: start the stack, generate inputs and
// references, and send the calls that compile and warm the models.
func setUp(w *workload, e *env, cfg stackConfig) (*instance, error) {
	st, err := startStack(cfg, e.rec)
	if err != nil {
		return nil, err
	}
	in, err := w.build(e, st)
	if err != nil {
		st.close()
		return nil, err
	}
	return in, nil
}

// endToEnd derives the end-to-end metrics of a measured phase and adds the
// report lines.
func endToEnd(w *workload, t *tally, setupS []float64, rss float64, res *result) map[string]metric {
	wall := t.wall.Seconds()
	lat := t.latencies(w.latClasses)
	out := map[string]metric{
		"setup_s":         {median(setupS), "s"},
		"requests_per_s":  {windowRate(t.cycles, wall, func(c cycle) float64 { return c.ok }), "req/s"},
		"sim_steps_per_s": {windowRate(t.cycles, wall, func(c cycle) float64 { return c.steps }), "steps/s"},
		"peak_rss_mb":     {rss, "MB"},
	}
	if v, ok := percentile(lat, 50); ok {
		out["latency_p50_ms"] = metric{v, "ms"}
	}
	tail, tailOK := tailRank(len(lat))
	if tailOK {
		out["latency_tail_ms"] = metric{slices.Sorted(slices.Values(lat))[tail-1], "ms"}
	}
	res.line("setup_s          %10.4f s       (median of %d: %s)", out["setup_s"].Value, len(setupS), fmtList(setupS, "%.3f"))
	res.line("requests_per_s   %10.2f req/s   (median of 1 s windows; overall %d ok in %.3f s = %.2f; by class %s)",
		out["requests_per_s"].Value, t.ok, wall, float64(t.ok)/wall, fmtCounts(t.byClass))
	res.line("  windows        %s", fmtList(windowRates(t.cycles, wall, func(c cycle) float64 { return c.ok }), "%.1f"))
	res.line("latency_p50_ms   %10.4f ms      (p50 of %d %s)", median(lat), len(lat), classNames(w.latClasses))
	if tailOK {
		res.line("latency_tail_ms  %10.4f ms      (rank %d of %d = p%.4g, %d beyond)", out["latency_tail_ms"].Value, tail, len(lat), 100*float64(tail)/float64(len(lat)), len(lat)-tail)
	} else {
		res.line("latency_tail_ms  not reported: %d samples leave fewer than %d beyond any percentile", len(lat), minTail)
	}
	for _, c := range slices.Sorted(maps.Keys(t.lat)) {
		res.line("  class %-10s p50 %10.4f ms  mean %10.4f ms  (%d)", c, median(t.lat[c]), mean(t.lat[c]), len(t.lat[c]))
	}
	res.line("sim_steps_per_s  %10.1f steps/s (%d state-steps)", out["sim_steps_per_s"].Value, t.steps)
	if t.rows > 0 {
		res.line("rows_per_s       %10.1f rows/s  (%d rows acknowledged persisted)", float64(t.rows)/wall, t.rows)
	}
	res.line("fail_ratio       %10.6f         (%d of %d)", float64(t.failed())/float64(max(t.attempted, 1)), t.failed(), t.attempted)
	res.line("peak_rss_mb      %10.1f MB", rss)
	return out
}

func fmtList(xs []float64, f string) string {
	var parts []string
	for _, x := range xs {
		parts = append(parts, fmt.Sprintf(f, x))
	}
	return strings.Join(parts, " ")
}

func fmtCounts(m map[string]int64) string {
	var parts []string
	for _, k := range slices.Sorted(maps.Keys(m)) {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return strings.Join(parts, " ")
}

func classNames(cs []string) string {
	if cs == nil {
		return "requests"
	}
	return strings.Join(cs, "+") + " requests"
}
