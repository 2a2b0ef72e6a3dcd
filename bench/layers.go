package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/tstore"
)

// perLayerNames are the per-layer metrics every workload reports from its
// traced run, and the ones BENCHMARK.json lists. layers.json holds these
// plus the per-class and workload-specific ones.
var perLayerNames = []string{
	"transport.p50_us",
	"service.self_p50_us",
	"service.decode_us",
	"service.encode_us",
	"service.fingerprint_us",
	"admission.admit_ns",
	"cache.get_us",
	"cache.hit_ratio",
	"hotspot.physics_us",
	"physics_share",
	"rcnet.mean_step_solve_us",
	"gc.cycles_per_request",
	"gc.pause_us_per_request",
	"alloc_bytes_per_request",
}

// snapshot is every counter the traced run reads before and after its
// measured phase.
type snapshot struct {
	svc    []service.Stats
	fleet  *fleet.Stats
	solver solverTotals
	store  *tstore.Stats
	fsNs   map[string]int64
	rt     runtimeSample
	client map[string]int64
}

// solverTotals sums the linear-solver counters of every model resident on
// every replica.
type solverTotals struct {
	factorizations, reuses, steps, stepNanos, batched int64
	kernels                                           map[string]int64
}

func takeSnapshot(in *instance) snapshot {
	s := snapshot{svc: in.st.serviceStats(), rt: readRuntime(), solver: solverTotals{kernels: map[string]int64{}}}
	if in.st.router != nil {
		fs := in.st.router.Stats()
		s.fleet = &fs
	}
	if in.st.store != nil {
		ts := in.st.store.Stats()
		s.store = &ts
	}
	if in.st.fs != nil {
		s.fsNs = in.st.fs.totalNs()
	}
	if in.counters != nil {
		s.client = in.counters()
	}
	for _, srv := range in.st.servers {
		for _, cm := range srv.Cache().Models() {
			st := cm.Model.SolverStats()
			s.solver.factorizations += st.Factorizations
			s.solver.reuses += st.FactorReuses
			s.solver.steps += st.DirectSteps + st.CGSteps
			s.solver.stepNanos += st.StepSolveNanos
			for _, n := range st.BatchWidths {
				s.solver.batched += n
			}
			for w, n := range st.KernelSolves {
				s.solver.kernels[w] += n
			}
		}
	}
	return s
}

// layerSet accumulates named metrics.
type layerSet map[string]metric

func (l layerSet) set(name string, v float64, unit string) { l[name] = metric{v, unit} }

// layerResult is the traced run's outcome.
type layerResult struct {
	metrics layerSet
	tally   *tally
}

// traceRun repeats the measured phase with spans on, reads counter deltas
// around it, probes each layer with direct calls, and writes spans.jsonl and
// layers.json under the trace directory.
func traceRun(w *workload, o options, in *instance, rec *recorder, e2e map[string]metric, res *result) (*layerResult, error) {
	before := takeSnapshot(in)
	rec.on.Store(true)
	traced := runPhase(in.loops, o.phase())
	rec.on.Store(false)
	after := takeSnapshot(in)
	p := newProbes(in.st)
	if err := in.probe(p); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	spans := rec.take()

	L := layerSet{}
	tracedE2E := endToEnd(w, traced, []float64{e2e["setup_s"].Value}, e2e["peak_rss_mb"].Value, &result{})
	spanMetrics(L, w, in, spans, p)
	probeMetrics(L, w, p, traced)
	counterMetrics(L, before, after, traced)
	overhead := func(name string, untracedV, tracedV float64) {
		if untracedV > 0 {
			L.set(name, (tracedV-untracedV)/untracedV*100, "%")
		}
	}
	overhead("tracing.requests_per_s_change_pct", e2e["requests_per_s"].Value, tracedE2E["requests_per_s"].Value)
	overhead("tracing.latency_p50_change_pct", e2e["latency_p50_ms"].Value, tracedE2E["latency_p50_ms"].Value)

	dir := filepath.Join(o.work, "trace", w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(dir, "spans.jsonl"), spans); err != nil {
		return nil, err
	}
	doc := struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Seconds  float64           `json:"seconds"`
		Spans    int               `json:"spans"`
		Untraced map[string]metric `json:"untraced"`
		Traced   map[string]metric `json:"traced"`
		Layers   layerSet          `json:"layers"`
	}{w.name, o.seed, o.seconds, len(spans), e2e, tracedE2E, L}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "layers.json"), append(b, '\n'), 0o644); err != nil {
		return nil, err
	}

	res.line("traced: requests_per_s %.2f (%+.1f%% vs untraced), latency_p50_ms %.4f (%+.1f%%)",
		tracedE2E["requests_per_s"].Value, L["tracing.requests_per_s_change_pct"].Value,
		tracedE2E["latency_p50_ms"].Value, L["tracing.latency_p50_change_pct"].Value)
	for _, k := range slices.Sorted(maps.Keys(L)) {
		res.line("  %-44s %14.4f %s", k, L[k].Value, L[k].Unit)
	}
	res.line("wrote %d spans and %d layer metrics to %s", len(spans), len(L), dir)
	return &layerResult{metrics: L, tally: traced}, nil
}

// reqSpans is one request's spans by layer.
type reqSpans struct{ client, fleet, service *span }

// spanMetrics derives the span-based metrics: transport and router self
// time, the service layer's self time per class, and ring-owner affinity.
func spanMetrics(L layerSet, w *workload, in *instance, spans []span, p *probes) {
	byID := map[uint64]*reqSpans{}
	for i := range spans {
		s := &spans[i]
		if s.ID == 0 {
			continue
		}
		v := byID[s.ID]
		if v == nil {
			v = &reqSpans{}
			byID[s.ID] = v
		}
		switch s.Layer {
		case "client":
			v.client = s
		case "fleet":
			v.fleet = s
		case "service":
			v.service = s
		}
	}
	var transport, fleetSelf []float64
	svcByClass := map[string][]float64{}
	owner, routed := 0, 0
	for _, v := range byID {
		if v.client == nil || v.service == nil {
			continue
		}
		outer := v.service
		if v.fleet != nil {
			outer = v.fleet
			fleetSelf = append(fleetSelf, v.fleet.us()-v.service.us())
			if v.client.Key != "" {
				routed++
				if in.st.addrs[v.service.Replica] == in.st.router.Ring().Owner(v.client.Key) {
					owner++
				}
			}
		}
		transport = append(transport, v.client.us()-outer.us())
		svcByClass[v.client.Class] = append(svcByClass[v.client.Class], v.service.us())
	}
	L.set("transport.p50_us", median(transport), "us")
	if len(fleetSelf) > 0 {
		L.set("fleet.self_p50_us", median(fleetSelf), "us")
	}
	if routed > 0 {
		L.set("fleet.owner_hit_ratio", float64(owner)/float64(routed), "ratio")
	}
	// Self time: the replica's span minus the parts the probes timed, per
	// class, then weighted by each class's share of the spans.
	var selfSum, n float64
	for c, durs := range svcByClass {
		parts, ok := p.med("service.parts_us." + c)
		if !ok {
			continue
		}
		self := median(durs) - parts
		L.set("service.self_p50_us."+c, self, "us")
		selfSum += self * float64(len(durs))
		n += float64(len(durs))
	}
	if n > 0 {
		L.set("service.self_p50_us", selfSum/n, "us")
	}
}

// probeMetrics files the medians of the direct-call probes, overall and per
// class, and physics_share.
func probeMetrics(L layerSet, w *workload, p *probes, traced *tally) {
	// Reported overall (and per class where marked), per class only, or
	// overall only.
	const overall, both, classOnly = 0, 1, 2
	keys := []struct {
		name, unit string
		scope      int
	}{
		{"service.decode_us", "us", both},
		{"service.encode_us", "us", both},
		{"service.fingerprint_us", "us", both},
		{"cache.get_us", "us", overall},
		{"admission.admit_ns", "ns", overall},
		{"hotspot.steady_us", "us", classOnly},
		{"hotspot.replay_ms_per_request", "ms", overall},
		{"fleet.ring_lookup_ns", "ns", overall},
		{"trace.decode_ns_per_row", "ns", overall},
		{"tstore.persist_ms_per_run", "ms", overall},
		{"tstore.query_us", "us", overall},
		{"scenario.compile_ms", "ms", overall},
		{"scenario.rungrid_ms", "ms", classOnly},
		{"service.stream_encode_us_per_cell", "us", overall},
		{"uarch.cycles_per_s", "cycles/s", overall},
	}
	classes := slices.Sorted(maps.Keys(p.classes))
	for _, k := range keys {
		if v, ok := p.med(k.name); ok && k.scope != classOnly {
			L.set(k.name, v, k.unit)
		}
		if k.scope == overall {
			continue
		}
		for _, c := range classes {
			if v, ok := p.med(k.name + "." + c); ok {
				L.set(k.name+"."+c, v, k.unit)
			}
		}
	}
	// physics_share: probed physics ÷ client-observed p50 over the classes
	// that do physics.
	var phys []float64
	for _, c := range classes {
		if w.physClasses == nil || slices.Contains(w.physClasses, c) {
			phys = append(phys, p.samples["hotspot.physics_us."+c]...)
		}
	}
	if lat := traced.latencies(w.physClasses); len(phys) > 0 && len(lat) > 0 {
		L.set("hotspot.physics_us", median(phys), "us")
		L.set("physics_share", median(phys)/(median(lat)*1e3), "ratio")
	}
}

// counterMetrics files the counter deltas over the traced phase.
func counterMetrics(L layerSet, b, a snapshot, traced *tally) {
	var hits, misses, compiles, shed int64
	var waitP99 float64
	for i := range a.svc {
		hits += a.svc[i].Cache.Hits - b.svc[i].Cache.Hits
		misses += a.svc[i].Cache.Misses - b.svc[i].Cache.Misses
		compiles += a.svc[i].Cache.Compiles - b.svc[i].Cache.Compiles
		for name, t := range a.svc[i].Admission.Tenants {
			t0 := b.svc[i].Admission.Tenants[name]
			shed += t.ShedRate + t.ShedQueue - t0.ShedRate - t0.ShedQueue
			if t.QueueWaitP99MS > waitP99 {
				waitP99 = t.QueueWaitP99MS
			}
		}
	}
	if hits+misses > 0 {
		L.set("cache.hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	}
	L.set("cache.compiles", float64(compiles), "count")
	L.set("admission.shed", float64(shed), "count")
	L.set("admission.queue_wait_p99_ms", waitP99, "ms")

	if a.fleet != nil {
		var attempts int64
		for i, r := range a.fleet.Replicas {
			attempts += r.Attempts - b.fleet.Replicas[i].Attempts
		}
		if proxied := a.fleet.Proxied - b.fleet.Proxied; proxied > 0 {
			L.set("fleet.attempts_per_request", float64(attempts)/float64(proxied), "ratio")
		}
	}

	ds := a.solver
	steps := ds.steps - b.solver.steps
	if steps > 0 {
		L.set("rcnet.mean_step_solve_us", float64(ds.stepNanos-b.solver.stepNanos)/float64(steps)/1e3, "us")
	}
	facts, reuses := ds.factorizations-b.solver.factorizations, ds.reuses-b.solver.reuses
	L.set("rcnet.factorizations", float64(facts), "count")
	if facts+reuses > 0 {
		L.set("rcnet.factor_reuse_ratio", float64(reuses)/float64(facts+reuses), "ratio")
	}
	if batched := ds.batched - b.solver.batched; batched > 0 {
		L.set("rcnet.batch_width_mean", float64(steps)/float64(batched), "rhs")
	}
	var wide, all int64
	for width, n := range ds.kernels {
		d := n - b.solver.kernels[width]
		all += d
		if width != "1" {
			wide += d
		}
	}
	if all > 0 {
		L.set("linalg.wide_kernel_share", float64(wide)/float64(all), "ratio")
	}

	if a.store != nil {
		runs := a.client["runs"] - b.client["runs"]
		queries := a.client["queries"] - b.client["queries"]
		rows := a.store.Rows - b.store.Rows
		if rows > 0 {
			L.set("tstore.bytes_per_row", float64(a.store.Bytes-b.store.Bytes)/float64(rows), "B")
		}
		if runs > 0 {
			L.set("tstore.segments_per_run", float64(a.store.Segments-b.store.Segments)/float64(runs), "count")
			L.set("tstore.fs_write_us_per_run", float64(a.fsNs["write"]-b.fsNs["write"])/float64(runs)/1e3, "us")
		}
		if queries > 0 {
			L.set("tstore.fs_read_us_per_query", float64(a.fsNs["read"]-b.fsNs["read"])/float64(queries)/1e3, "us")
		}
		rollup := a.client["rollup_buckets"] - b.client["rollup_buckets"]
		raw := a.client["raw_buckets"] - b.client["raw_buckets"]
		if rollup+raw > 0 {
			L.set("tstore.rollup_bucket_ratio", float64(rollup)/float64(rollup+raw), "ratio")
		}
	}

	// Per request, so that serving more requests in the same phase does not
	// read as more garbage.
	if n := float64(traced.attempted); n > 0 {
		L.set("gc.cycles_per_request", float64(a.rt.gcCycles-b.rt.gcCycles)/n, "count")
		if a.rt.gomaxprocs > 0 {
			L.set("gc.pause_us_per_request", (a.rt.pauseCPU-b.rt.pauseCPU)/float64(a.rt.gomaxprocs)*1e6/n, "us")
		}
		L.set("alloc_bytes_per_request", float64(a.rt.allocBytes-b.rt.allocBytes)/n, "B")
	}
}
