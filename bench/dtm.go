package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/hotspot"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/uarch"
)

// The dtm-grid workload: one connection, streamed closed-loop DTM scenario
// grids at workers 1, alternating in a fixed seeded ratio between the
// checked-in pulse sweep and a live-CPU spec whose phases co-simulate the
// gcc and mcf instruction streams.

// pulseSpecPath is the checked-in 12-cell pulse sweep, relative to the
// repository root.
var pulseSpecPath = filepath.Join("examples", "specs", "dtm-sweep.json")

// liveSpec co-simulates gcc then mcf, 1 ms each, on 4 cells. Its CPU clock
// is lowered to 300 MHz (30k cycles per 0.1 ms control step) so one request
// costs tens of milliseconds: many short live requests per run keep the
// pulse/live split steady from run to run.
const liveSpec = `{
  "name": "live-cpu",
  "interval": 1e-4,
  "emergency_c": 60,
  "initial_steady": true,
  "power": {"clock_hz": 3e8},
  "phases": [
    {"name": "gcc", "duration": 1e-3, "workload": "gcc"},
    {"name": "mcf", "duration": 1e-3, "workload": "mcf"}
  ],
  "packages": [
    {"label": "air", "kind": "air-sink"},
    {"label": "oil", "kind": "oil-silicon"}
  ],
  "policies": {"trigger_c": [52, 56]}
}`

const (
	dtmWorkers = 1
	// pulsesPerLive is the request ratio, calibrated so each spec takes
	// about half of the host time.
	pulsesPerLive = 10
	dtmCycles     = 8 // pool: dtmCycles live and dtmCycles*pulsesPerLive pulse requests, shuffled
)

// dtmSpec is one scenario spec with its reference grid.
type dtmSpec struct {
	class   string
	body    []byte // the ScenarioRequest
	cells   int
	steps   int
	ref     []scenario.CellResult
	configs []hotspot.Config // package models

	served *dtmStream // the last stream served for it, as checked
}

// dtmStream is one decoded NDJSON scenario stream.
type dtmStream struct {
	hdr     service.ScenarioHeaderJSON
	cells   []service.ScenarioCellJSON
	trailer service.ScenarioTrailerJSON
}

func buildDTM(env *env, st *stack) (*instance, error) {
	rng := rand.New(rand.NewSource(env.seed))
	pulseRaw, err := os.ReadFile(filepath.Join(env.root, pulseSpecPath))
	if err != nil {
		return nil, err
	}
	pulse, err := newDTMSpec("pulse", pulseRaw)
	if err != nil {
		return nil, err
	}
	live, err := newDTMSpec("live", []byte(liveSpec))
	if err != nil {
		return nil, err
	}
	var order []*dtmSpec
	for c := 0; c < dtmCycles; c++ {
		order = append(order, live)
		for k := 0; k < pulsesPerLive; k++ {
			order = append(order, pulse)
		}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	calls := map[*dtmSpec]*call{pulse: pulse.call(), live: live.call()}

	in := &instance{st: st}
	in.loops = []*loop{env.newLoop(st.base, func(i int) *call { return calls[order[i%len(order)]] })}
	in.probe = func(p *probes) error { return probeDTM(p, order) }
	return in, warmUp(in.loops[0], calls[pulse], calls[live])
}

// newDTMSpec parses a spec and runs its reference grid by direct calls.
func newDTMSpec(class string, raw []byte) (*dtmSpec, error) {
	spec, err := scenario.ParseSpec(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%s spec: %w", class, err)
	}
	compiled, err := scenario.Compile(spec, scenario.Options{})
	if err != nil {
		return nil, fmt.Errorf("%s spec: %w", class, err)
	}
	ref := compiled.RunGrid(context.Background(), dtmWorkers, nil)
	for _, r := range ref {
		if r.Err != nil {
			return nil, fmt.Errorf("%s reference cell %d: %w", class, r.Cell.Index, r.Err)
		}
	}
	body, err := json.Marshal(service.ScenarioRequest{Spec: raw, Workers: dtmWorkers})
	if err != nil {
		return nil, err
	}
	s := &dtmSpec{class: class, body: body, cells: len(ref), steps: compiled.Steps(), ref: ref}
	for _, ps := range spec.Packages {
		ambientC := ps.AmbientC
		if ambientC == 0 {
			ambientC = 45
		}
		cfg, err := core.BuildConfig(floorplan.EV6(), core.PackageSpec{Kind: ps.Kind, Rconv: ps.Rconv,
			Direction: ps.Direction, Secondary: ps.Secondary, AmbientK: ambientC + 273.15})
		if err != nil {
			return nil, err
		}
		s.configs = append(s.configs, cfg)
	}
	return s, nil
}

// call is the streamed request for the spec with its reference check.
func (s *dtmSpec) call() *call {
	return &call{class: s.class, method: "POST", path: "/v1/scenario/stream", ctype: "application/json",
		body: s.body, steps: int64(s.cells * s.steps), check: s.check}
}

// check holds an NDJSON scenario stream against the reference grid: header
// shape, every cell once with metrics matching, and the done trailer.
func (s *dtmSpec) check(b []byte) (int64, error) {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	if len(lines) != s.cells+2 {
		return 0, fmt.Errorf("%d NDJSON lines, want %d", len(lines), s.cells+2)
	}
	st := &dtmStream{cells: make([]service.ScenarioCellJSON, s.cells)}
	if err := json.Unmarshal(lines[0], &st.hdr); err != nil {
		return 0, err
	}
	if st.hdr.Cells != s.cells || st.hdr.Steps != s.steps {
		return 0, fmt.Errorf("header %d cells × %d steps, reference %d × %d", st.hdr.Cells, st.hdr.Steps, s.cells, s.steps)
	}
	seen := make([]bool, s.cells)
	for k, ln := range lines[1 : len(lines)-1] {
		c := &st.cells[k]
		if err := json.Unmarshal(ln, c); err != nil {
			return 0, err
		}
		if c.Cell < 0 || c.Cell >= s.cells || seen[c.Cell] {
			return 0, fmt.Errorf("cell index %d repeated or out of range", c.Cell)
		}
		seen[c.Cell] = true
		if c.Error != "" || c.Metrics == nil {
			return 0, fmt.Errorf("cell %d: error %q", c.Cell, c.Error)
		}
		if err := checkMetrics(c.Cell, *c.Metrics, s.ref[c.Cell].Metrics); err != nil {
			return 0, err
		}
	}
	if err := json.Unmarshal(lines[len(lines)-1], &st.trailer); err != nil {
		return 0, err
	}
	if !st.trailer.Done {
		return 0, fmt.Errorf("stream trailer not done")
	}
	s.served = st
	return 0, nil
}

func checkMetrics(cell int, got, want scenario.Metrics) error {
	if got.Engagements != want.Engagements || got.Committed != want.Committed {
		return fmt.Errorf("cell %d: engagements %d committed %d, reference %d %d",
			cell, got.Engagements, got.Committed, want.Engagements, want.Committed)
	}
	for _, f := range [...]struct {
		what      string
		got, want float64
	}{
		{"duration_s", got.DurationS, want.DurationS},
		{"engaged_s", got.EngagedS, want.EngagedS},
		{"duty_cycle", got.DutyCycle, want.DutyCycle},
		{"perf_penalty", got.PerfPenalty, want.PerfPenalty},
		{"violation_s", got.ViolationS, want.ViolationS},
		{"covered_violation_s", got.CoveredViolationS, want.CoveredViolationS},
		{"violation_coverage", got.ViolationCoverage, want.ViolationCoverage},
		{"peak_c", got.PeakC, want.PeakC},
		{"observed_peak_c", got.ObservedPeakC, want.ObservedPeakC},
		{"initial_hot_c", got.InitialHotC, want.InitialHotC},
		{"final_hot_c", got.FinalHotC, want.FinalHotC},
	} {
		if err := checkClose(fmt.Sprintf("cell %d %s", cell, f.what), f.got, f.want); err != nil {
			return err
		}
	}
	return nil
}

// probeDTM replays the first requests as direct calls: request and spec
// decoding, package fingerprints and cache lookups, scenario.Compile through
// the serving replica's cache, RunGrid, and the NDJSON encode of the stream
// served for the spec; then times the uarch CPU model alone.
func probeDTM(p *probes, order []*dtmSpec) error {
	err := p.run(len(order), func(i int) error {
		s := order[i]
		if s.served == nil {
			return fmt.Errorf("%s stream never served", s.class)
		}
		p.begin(s.class)
		var spec *scenario.Spec
		var err error
		p.part("service.decode_us", us(func() {
			var req service.ScenarioRequest
			dec := json.NewDecoder(bytes.NewReader(s.body))
			dec.DisallowUnknownFields()
			if err = dec.Decode(&req); err == nil {
				spec, err = scenario.ParseSpec(bytes.NewReader(req.Spec))
			}
		}))
		if err != nil {
			return err
		}
		// Compile resolves each package through the cache by fingerprint;
		// those two steps are timed alone too, outside the parts.
		get := func(fp string) (*service.CachedModel, error) {
			cm, _, err := p.cache(fp).Get(fp, func() (*hotspot.Model, error) { return nil, errNotResident })
			return cm, err
		}
		var fps, gets float64
		for _, cfg := range s.configs {
			var fp string
			fps += us(func() { fp = cfg.Fingerprint() })
			gets += us(func() { _, err = get(fp) })
			if err != nil {
				return err
			}
		}
		p.add("service.fingerprint_us", fps)
		p.add("cache.get_us", gets)
		p.admit()
		var compiled *scenario.Compiled
		t := us(func() {
			compiled, err = scenario.Compile(spec, scenario.Options{Models: func(cfg hotspot.Config) (*hotspot.Model, error) {
				cm, err := get(cfg.Fingerprint())
				if err != nil {
					return nil, err
				}
				return cm.Model, nil
			}})
		})
		if err != nil {
			return err
		}
		p.part("scenario.compile_us", t)
		p.add("scenario.compile_ms", t/1e3)
		t = us(func() { compiled.RunGrid(context.Background(), dtmWorkers, nil) })
		p.physics(t)
		p.add("scenario.rungrid_ms", t/1e3)
		enc := json.NewEncoder(io.Discard)
		hdr := us(func() { err = enc.Encode(s.served.hdr) })
		body := us(func() {
			for k := 0; k < len(s.served.cells) && err == nil; k++ {
				err = enc.Encode(s.served.cells[k])
			}
		})
		tail := us(func() {
			if err == nil {
				err = enc.Encode(s.served.trailer)
			}
		})
		p.part("service.encode_us", hdr+body+tail)
		p.add("service.stream_encode_us_per_cell", body/float64(len(s.served.cells)))
		return err
	})
	if err != nil {
		return err
	}
	p.begin("live")
	for k := 0; k < 3; k++ {
		stream, err := uarch.NewStream(uarch.GCC(), 2009)
		if err != nil {
			return err
		}
		cpu, err := uarch.NewCPU(uarch.DefaultCPU(), stream)
		if err != nil {
			return err
		}
		const cycles = 1_000_000
		t := us(func() { _, _ = cpu.Run(cycles, cycles) })
		p.add("uarch.cycles_per_s", cycles/(t/1e6))
	}
	return nil
}
