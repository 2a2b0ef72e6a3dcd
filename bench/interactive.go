package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/hotspot"
	"repro/internal/service"
)

// The interactive workload: one connection to a fleet router over two
// replicas, a seeded mix of small requests whose cost is mostly JSON, HTTP,
// routing and fingerprinting rather than physics.
var (
	// ev6Coolings are the four EV6 cooling configurations of the mix.
	ev6Coolings = []service.ModelSpec{
		{Floorplan: "ev6", Package: "air-sink"},
		{Floorplan: "ev6", Package: "oil-silicon", Direction: "uniform"},
		{Floorplan: "ev6", Package: "oil-silicon", Direction: "l2r", Secondary: true},
		{Floorplan: "ev6", Package: "oil-silicon", Direction: "t2b", Secondary: true},
	}
	grid32Spec = service.ModelSpec{Floorplan: "grid:32x32", Package: "oil-silicon"}
)

const (
	interactivePool = 1000 // distinct requests, cycled in order
	ev6SteadyShare  = 600  // of the pool: EV6 steady, spread over ev6Coolings
	grid32Share     = 200  // grid:32x32 oil steady
	// the rest are EV6 inline transients
	grid32HotBlocks = 64   // powered blocks per grid:32x32 request
	pulseRows       = 50   // rows per transient
	pulseInterval   = 1e-4 // s
	pulseMaxPoints  = 50
)

// interactiveRequest is one pool entry; its call holds the reference check.
type interactiveRequest struct {
	class  string
	spec   service.ModelSpec
	steady bool
	power  []float64 // node power of a steady request
	call   *call
	served any // the last response served for it, as its check decoded it
}

func buildInteractive(env *env, st *stack) (*instance, error) {
	rng := rand.New(rand.NewSource(env.seed))
	specs := append(append([]service.ModelSpec(nil), ev6Coolings...), grid32Spec)
	models := make([]*hotspot.Model, len(specs))
	for i, sp := range specs {
		m, err := compile(sp)
		if err != nil {
			return nil, err
		}
		models[i] = m
	}
	ev6Names := models[0].Floorplan().Names()

	// The class mix is exact; only the order and the inputs are random.
	kinds := make([]int, interactivePool) // index into specs; -1 marks a transient
	for i := range kinds {
		switch {
		case i < ev6SteadyShare:
			kinds[i] = i % len(ev6Coolings)
		case i < ev6SteadyShare+grid32Share:
			kinds[i] = len(ev6Coolings)
		default:
			kinds[i] = -1 - i%len(ev6Coolings)
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	pool := make([]*interactiveRequest, interactivePool)
	for i, k := range kinds {
		var r *interactiveRequest
		var err error
		if k >= 0 {
			r, err = steadyRequest(rng, specs[k], models[k])
		} else {
			c := -1 - k
			r, err = pulseRequest(rng, ev6Coolings[c], models[c], ev6Names)
		}
		if err != nil {
			return nil, err
		}
		pool[i] = r
	}

	in := &instance{st: st}
	in.loops = []*loop{env.newLoop(st.base, func(i int) *call { return pool[i%len(pool)].call })}
	in.probe = func(p *probes) error { return probeInteractive(p, st, pool) }
	// Compile every model on its owning replica, and factor each
	// transient's step operator, before anything is timed.
	warmed := map[string]bool{}
	var warm []*call
	for _, r := range pool {
		key := r.class + fmt.Sprint(r.spec)
		if !warmed[key] {
			warmed[key] = true
			warm = append(warm, r.call)
		}
	}
	return in, warmUp(in.loops[0], warm...)
}

// steadyRequest draws a random power map for the model and solves its
// reference.
func steadyRequest(rng *rand.Rand, spec service.ModelSpec, m *hotspot.Model) (*interactiveRequest, error) {
	names := m.Floorplan().Names()
	power := map[string]float64{}
	class := "ev6"
	if spec.Floorplan == grid32Spec.Floorplan {
		class = "grid32"
		for _, j := range rng.Perm(len(names))[:grid32HotBlocks] {
			power[names[j]] = 0.05 + 0.45*rng.Float64()
		}
	} else {
		for _, n := range names {
			power[n] = 0.2 + 3.8*rng.Float64()
		}
	}
	req := &service.SteadyRequest{Model: spec, Power: power}
	vec, err := m.PowerVector(power)
	if err != nil {
		return nil, err
	}
	ref := m.NewSession().SteadyState(vec)
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		return nil, err
	}
	r := &interactiveRequest{class: class, spec: spec, steady: true, power: vec}
	want := ref.BlocksC()
	hotName, hotC := ref.Hottest()
	spread := ref.Spread()
	r.call = &call{class: class, key: fp, method: "POST", path: "/v1/steady", ctype: "application/json", body: body,
		check: func(b []byte) (int64, error) {
			var resp service.SteadyResponse
			if err := json.Unmarshal(b, &resp); err != nil {
				return 0, err
			}
			if resp.HottestBlock != hotName {
				return 0, fmt.Errorf("hottest_block = %q, reference %q", resp.HottestBlock, hotName)
			}
			if err := checkClose("hottest_c", resp.HottestC, hotC); err != nil {
				return 0, err
			}
			if err := checkClose("spread_c", resp.SpreadC, spread); err != nil {
				return 0, err
			}
			r.served = &resp
			return 0, checkBlockMap("block_c", resp.BlockC, names, want)
		}}
	return r, nil
}

// pulseRequest draws a 50-row pulse on a random EV6 block over random base
// powers and replays its reference.
func pulseRequest(rng *rand.Rand, spec service.ModelSpec, m *hotspot.Model, names []string) (*interactiveRequest, error) {
	base := make([]float64, len(names))
	for b := range base {
		base[b] = 0.2 + 1.8*rng.Float64()
	}
	hot := rng.Intn(len(names))
	peak := 5 + 5*rng.Float64()
	on := rng.Intn(pulseRows / 2)
	off := on + 1 + rng.Intn(pulseRows-on-1)
	ts := &service.TraceSpec{Names: names, Interval: pulseInterval}
	for k := 0; k < pulseRows; k++ {
		row := append([]float64(nil), base...)
		if k >= on && k < off {
			row[hot] = peak
		}
		ts.Rows = append(ts.Rows, row)
	}
	req := &service.TransientRequest{Model: spec, Trace: ts, MaxPoints: pulseMaxPoints}
	tr, err := inlineTrace(ts)
	if err != nil {
		return nil, err
	}
	pts, err := m.NewSession().ReplayRows(m.AmbientState(), tr.Reader())
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		return nil, err
	}
	r := &interactiveRequest{class: "transient", spec: spec}
	r.call = &call{class: "transient", key: fp, method: "POST", path: "/v1/transient", ctype: "application/json",
		body: body, steps: pulseRows,
		check: func(b []byte) (int64, error) {
			var resp service.TransientResponse
			if err := json.Unmarshal(b, &resp); err != nil {
				return 0, err
			}
			r.served = &resp
			return 0, checkTransient(&resp, names, pts)
		}}
	return r, nil
}

// probeInteractive replays the first requests that were served as direct
// calls: request decode, the router's ring lookup, the replica's model path,
// the solve or replay, and the encode of the response served for the
// request.
func probeInteractive(p *probes, st *stack, pool []*interactiveRequest) error {
	var served []*interactiveRequest
	for _, r := range pool {
		if r.served != nil {
			served = append(served, r)
		}
	}
	ring := st.router.Ring()
	all := func(string) bool { return true }
	idle := func(string) int { return 0 }
	return p.run(len(served), func(i int) error {
		r := served[i]
		p.begin(r.class)
		t0 := time.Now()
		_, _ = ring.OwnerBounded(r.call.key, 1.25, all, idle)
		p.add("fleet.ring_lookup_ns", float64(time.Since(t0)))
		if r.steady {
			var req service.SteadyRequest
			p.decode(r.call.body, &req)
			cm, err := p.modelPath(r.spec)
			if err != nil {
				return err
			}
			se := cm.Session()
			t := us(func() { se.SteadyState(r.power) })
			cm.Release(se)
			p.physics(t)
			p.add("hotspot.steady_us", t)
			return p.encode(r.served)
		}
		var req service.TransientRequest
		p.decode(r.call.body, &req)
		cm, err := p.modelPath(r.spec)
		if err != nil {
			return err
		}
		tr, err := inlineTrace(req.Trace)
		if err != nil {
			return err
		}
		se := cm.Session()
		t := us(func() { _, err = se.ReplayRows(cm.Model.AmbientState(), tr.Reader()) })
		cm.Release(se)
		if err != nil {
			return err
		}
		p.physics(t)
		p.add("hotspot.replay_ms_per_request", t/1e3)
		return p.encode(r.served)
	})
}
