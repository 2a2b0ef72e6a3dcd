package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/admission"
	"repro/internal/hotspot"
	"repro/internal/service"
)

// probes collects per-request timings of direct calls into each layer's
// public functions, replayed after the traced phase on the workload's first
// requests. Every value is filed under its metric name and again under
// "<metric>.<class>". Values filed with part also add to the request's
// "service.parts_us": the probed share of a replica's span, which the span
// minus the parts leaves as the service layer's own time.
type probes struct {
	samples map[string][]float64
	classes map[string]bool // every class probed

	class string  // request being probed
	parts float64 // its probed parts so far, µs

	st  *stack
	adm *admission.Controller
}

// maxProbes and probeBudget bound the replay: at most the first 200
// requests of a stream, within the budget of host time (heavy requests stop
// earlier, after at least minProbes).
const (
	maxProbes   = 200
	minProbes   = 5
	probeBudget = 2 * time.Second
)

// newProbes builds the probe harness over the stack that served the traced
// phase, whose model caches the probes read.
func newProbes(st *stack) *probes {
	return &probes{
		samples: map[string][]float64{},
		classes: map[string]bool{},
		st:      st,
		// An uncontended Admit + Release takes the same path whatever the
		// controller's size.
		adm: admission.New(admission.Config{Slots: 1}),
	}
}

// errNotResident is a probe's cache miss: the probes time the served
// replicas' warm caches and never compile.
var errNotResident = errors.New("model not resident in the serving replica's cache")

// cache is the model cache of the replica that serves route key key: its
// ring owner behind the router, else the only replica.
func (p *probes) cache(key string) *service.ModelCache {
	if p.st.router != nil {
		owner := p.st.router.Ring().Owner(key)
		for i, a := range p.st.addrs {
			if a == owner {
				return p.st.servers[i].Cache()
			}
		}
	}
	return p.st.servers[0].Cache()
}

// add files one value under key and key.class.
func (p *probes) add(key string, v float64) {
	p.samples[key] = append(p.samples[key], v)
	k := key + "." + p.class
	p.samples[k] = append(p.samples[k], v)
	p.classes[p.class] = true
}

// part files a timing (µs) that is part of the replica's work.
func (p *probes) part(key string, usec float64) {
	p.add(key, usec)
	p.parts += usec
}

// run probes requests 0, 1, ... of one stream until n requests, maxProbes or
// the host-time budget (after minProbes) is reached. f(i) probes request i;
// it calls p.begin(class) before filing samples.
func (p *probes) run(n int, f func(i int) error) error {
	start := time.Now()
	for i := 0; i < n && i < maxProbes; i++ {
		if i >= minProbes && time.Since(start) > probeBudget {
			return nil
		}
		if err := f(i); err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		p.add("service.parts_us", p.parts)
	}
	return nil
}

// begin starts probing one request of the given class.
func (p *probes) begin(class string) {
	p.class = class
	p.parts = 0
}

// us times f in microseconds.
func us(f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0)) / 1e3
}

// decode times the service's strict request decoding into v.
func (p *probes) decode(body []byte, v any) {
	p.part("service.decode_us", us(func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		_ = dec.Decode(v)
	}))
}

// encode times the service's response encoding of v, a response as served
// (decoded from a served body by the request's check).
func (p *probes) encode(v any) error {
	var err error
	p.part("service.encode_us", us(func() { err = json.NewEncoder(io.Discard).Encode(v) }))
	return err
}

// modelPath times the steps a replica takes to reach a request's compiled
// model: ModelSpec.Fingerprint, ModelCache.Get on the serving replica's
// cache, and the admission controller's Admit and Release. It returns the
// cached model.
func (p *probes) modelPath(spec service.ModelSpec) (*service.CachedModel, error) {
	var fp string
	var err error
	p.part("service.fingerprint_us", us(func() { fp, err = spec.Fingerprint() }))
	if err != nil {
		return nil, err
	}
	cache := p.cache(fp)
	var cm *service.CachedModel
	p.part("cache.get_us", us(func() {
		cm, _, err = cache.Get(fp, func() (*hotspot.Model, error) { return nil, errNotResident })
	}))
	if err != nil {
		return nil, err
	}
	p.admit()
	return cm, nil
}

// admit times one uncontended Admit + Release.
func (p *probes) admit() {
	t0 := time.Now()
	dec, err := p.adm.Admit(context.Background(), "")
	if err == nil {
		dec.Release()
	}
	ns := float64(time.Since(t0))
	p.add("admission.admit_ns", ns)
	p.parts += ns / 1e3
}

// physics files time spent in the simulation layers proper.
func (p *probes) physics(usec float64) { p.part("hotspot.physics_us", usec) }

// med returns the median of a probe series and whether it exists.
func (p *probes) med(key string) (float64, bool) {
	xs := p.samples[key]
	if len(xs) == 0 {
		return 0, false
	}
	return median(xs), true
}
