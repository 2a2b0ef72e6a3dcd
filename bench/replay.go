package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/hotspot"
	"repro/internal/service"
	"repro/internal/trace"
)

// The replay-grid64 workload: one connection straight to one replica, each
// request a sweep of inline-trace scenarios on a 64x64 oil-cooled grid
// (about 8.2k RC nodes), which the replica replays in lockstep batches.
var grid64Spec = service.ModelSpec{Floorplan: "grid:64x64", Package: "oil-silicon"}

const (
	replayPool      = 4    // distinct sweep requests, cycled in order
	replayScenarios = 8    // inline-trace scenarios per sweep
	replayRows      = 100  // rows per trace
	replayColumns   = 8    // powered blocks per trace
	replayInterval  = 1e-4 // s
	replayWorkers   = 2
)

func buildReplay(env *env, st *stack) (*instance, error) {
	rng := rand.New(rand.NewSource(env.seed))
	m, err := compile(grid64Spec)
	if err != nil {
		return nil, err
	}
	names := m.Floorplan().Names()
	reqs := make([]*service.SweepRequest, replayPool)
	var jobs []hotspot.ReplayJob
	for i := range reqs {
		req := &service.SweepRequest{Workers: replayWorkers}
		for s := 0; s < replayScenarios; s++ {
			ts := &service.TraceSpec{Interval: replayInterval}
			for _, j := range rng.Perm(len(names))[:replayColumns] {
				ts.Names = append(ts.Names, names[j])
			}
			for k := 0; k < replayRows; k++ {
				row := make([]float64, replayColumns)
				for c := range row {
					row[c] = 0.5 + 2.5*rng.Float64()
				}
				ts.Rows = append(ts.Rows, row)
			}
			req.Scenarios = append(req.Scenarios, service.SweepScenario{Model: grid64Spec, Trace: ts})
			tr, err := inlineTrace(ts)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, hotspot.ReplayJob{Model: m, Temps: m.AmbientState(), Rows: tr.Reader()})
		}
		reqs[i] = req
	}
	// One batched reference replay for every scenario of every request:
	// per-job results are bit-identical at any batch width or worker count.
	pts, errs := hotspot.ReplayBatchResults(jobs, replayWorkers)
	for j, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference replay %d: %w", j, err)
		}
	}
	fp, err := grid64Spec.Fingerprint()
	if err != nil {
		return nil, err
	}
	calls := make([]*call, replayPool)
	served := make([]*service.SweepResponse, replayPool) // as each call's check decoded it
	for i, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		finals := make([][]float64, replayScenarios)
		peaks := make([][]float64, replayScenarios)
		for s := range finals {
			finals[s], peaks[s] = finalAndPeak(pts[i*replayScenarios+s])
		}
		calls[i] = &call{class: "sweep", key: fp, method: "POST", path: "/v1/sweep", ctype: "application/json",
			body: body, steps: replayScenarios * replayRows,
			check: func(b []byte) (int64, error) {
				var resp service.SweepResponse
				if err := json.Unmarshal(b, &resp); err != nil {
					return 0, err
				}
				if len(resp.Results) != replayScenarios {
					return 0, fmt.Errorf("%d results, want %d", len(resp.Results), replayScenarios)
				}
				for s, r := range resp.Results {
					if r.Error != "" {
						return 0, fmt.Errorf("scenario %d: %s", s, r.Error)
					}
					if err := checkBlockMap(fmt.Sprintf("results[%d].block_c", s), r.BlockC, names, finals[s]); err != nil {
						return 0, err
					}
					if err := checkBlockMap(fmt.Sprintf("results[%d].peak_c", s), r.PeakC, names, peaks[s]); err != nil {
						return 0, err
					}
				}
				served[i] = &resp
				return 0, nil
			}}
	}
	in := &instance{st: st}
	in.loops = []*loop{env.newLoop(st.base, func(i int) *call { return calls[i%len(calls)] })}
	in.probe = func(p *probes) error {
		var probed []int // the calls that were served
		for i := range calls {
			if served[i] != nil {
				probed = append(probed, i)
			}
		}
		return p.run(len(probed), func(k int) error {
			i := probed[k]
			p.begin("sweep")
			var req service.SweepRequest
			p.decode(calls[i].body, &req)
			cm, err := p.modelPath(grid64Spec)
			if err != nil {
				return err
			}
			var jobs []hotspot.ReplayJob
			for _, sc := range req.Scenarios {
				tr, err := inlineTrace(sc.Trace)
				if err != nil {
					return err
				}
				jobs = append(jobs, hotspot.ReplayJob{Model: cm.Model, Temps: cm.Model.AmbientState(), Rows: tr.Reader()})
			}
			var errs []error
			t := us(func() { _, errs = hotspot.ReplayBatchResults(jobs, req.Workers) })
			if err := errors.Join(errs...); err != nil {
				return err
			}
			p.physics(t)
			p.add("hotspot.replay_ms_per_request", t/1e3)
			return p.encode(served[i])
		})
	}
	return in, warmUp(in.loops[0], calls[0])
}

// inlineTrace materializes an inline trace the way the service validates
// it.
func inlineTrace(ts *service.TraceSpec) (*trace.PowerTrace, error) {
	tr, err := trace.New(ts.Names, ts.Interval)
	if err != nil {
		return nil, err
	}
	for _, row := range ts.Rows {
		if err := tr.Append(row); err != nil {
			return nil, err
		}
	}
	return tr, nil
}
