package hotspot

import (
	"fmt"
	"math"

	"repro/internal/rcnet"
)

// BatchSession is a K-wide co-simulation stepping context over one compiled
// Model: K independent temperature states advance through one backward-Euler
// step per call, sharing a single factor traversal on the direct solver
// path. It exists for callers that interleave per-state feedback with
// stepping — the scenario engine recomputes every cell's power between
// steps, so it cannot hand the solver a whole trace, but it can hand it all
// cells' right-hand sides at once. Like Session, one BatchSession must not
// be used from more than one goroutine at a time.
type BatchSession struct {
	m          *Model
	bs         *rcnet.BatchSession
	nodePowers [][]float64
	tview      [][]float64 // per-call view: nil where a slot is skipped or invalid
}

// NewBatchSession creates a K-wide stepping context. Safe to call
// concurrently.
func (m *Model) NewBatchSession(width int) *BatchSession {
	if width < 1 {
		width = 1
	}
	b := &BatchSession{
		m:          m,
		bs:         m.solver.NewBatchSession(width),
		nodePowers: make([][]float64, width),
		tview:      make([][]float64, width),
	}
	for k := range b.nodePowers {
		b.nodePowers[k] = make([]float64, m.net.N())
	}
	return b
}

// Model returns the model this session runs against.
func (b *BatchSession) Model() *Model { return b.m }

// Width returns the number of slots.
func (b *BatchSession) Width() int { return len(b.nodePowers) }

// StepBlockPower advances up to Width temperature states (in place) by one
// backward-Euler step of size dt under per-slot block powers (floorplan
// order, W). Slots with a nil temperature vector are skipped. Per-slot
// failures — invalid power values, a stalled iterative solve — land in
// errs and leave that slot's state untouched; the returned error reports
// batch-level failures that apply to every slot. Per-slot results are
// bit-identical to stepping each slot alone.
func (b *BatchSession) StepBlockPower(temps, blockPowers [][]float64, dt float64, errs []error) error {
	m := b.m
	kk := len(temps)
	if len(blockPowers) != kk || len(errs) != kk || kk > len(b.nodePowers) {
		return fmt.Errorf("hotspot: batch step shape: %d temps, %d powers, %d errs, width %d",
			kk, len(blockPowers), len(errs), len(b.nodePowers))
	}
	nb := m.cfg.Floorplan.N()
	for k := 0; k < kk; k++ {
		b.tview[k] = nil
		if temps[k] == nil {
			continue
		}
		if len(temps[k]) != m.net.N() {
			errs[k] = fmt.Errorf("hotspot: temperature vector length %d, want %d", len(temps[k]), m.net.N())
			continue
		}
		if len(blockPowers[k]) != nb {
			errs[k] = fmt.Errorf("hotspot: got %d block powers, floorplan has %d", len(blockPowers[k]), nb)
			continue
		}
		np := b.nodePowers[k]
		for i := range np {
			np[i] = 0
		}
		bad := false
		for bi, w := range blockPowers[k] {
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				errs[k] = fmt.Errorf("hotspot: invalid power %g for block %d", w, bi)
				bad = true
				break
			}
			np[m.blockNode[bi]] = w
		}
		if bad {
			continue
		}
		b.tview[k] = temps[k]
	}
	return b.bs.StepBE(b.tview[:kk], b.nodePowers[:kk], dt, errs)
}
