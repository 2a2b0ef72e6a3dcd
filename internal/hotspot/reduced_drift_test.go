package hotspot

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/trace"
)

// Golden drift gates for the reduced-order backend (DESIGN.md §10): a
// reduced session replaying the paper's Fig. 8 power schedule must track
// the full solver within 0.1 K at every sampled instant of every block,
// without tripping its residual fallback. 0.1 K is well under both the
// paper's reported model-vs-IR-measurement error and any DTM threshold
// granularity, so a reduction inside this gate is observationally
// indistinguishable from the full model.
const reducedDriftGateK = 0.1

// fig8Trace is the paper's §4.1.2 schedule on the EV6 Dcache: a power
// density of 2e6 W/m² pulsed 15 ms on / 85 ms off, one full period.
func fig8Trace(t *testing.T, fp *floorplan.Floorplan) *trace.PowerTrace {
	t.Helper()
	var area float64
	for _, b := range fp.Blocks {
		if b.Name == "Dcache" {
			area = b.Width * b.Height
		}
	}
	if area == 0 {
		t.Fatal("no Dcache block in floorplan")
	}
	tr, err := trace.PulseTrain(fp.Names(), "Dcache", 2e6*area, 15e-3, 85e-3, 1e-3, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// avgPowerVector expands the trace's average power into a node-power
// vector — the warm operating point both replays start from.
func avgPowerVector(t *testing.T, m *Model, tr *trace.PowerTrace) []float64 {
	t.Helper()
	avg := tr.Average()
	cols := m.TraceColumns(tr.Names)
	blocks := make([]float64, m.Floorplan().N())
	for c, bi := range cols {
		if bi >= 0 {
			blocks[bi] = avg[c]
		}
	}
	p, err := m.BlockPowerVector(blocks)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// maxReplayDriftK runs the Fig. 8 replay on a full and a reduced build of
// the same config, both warm-started from the full model's steady state at
// the trace's average power, and returns the worst per-block per-sample
// absolute temperature difference.
func maxReplayDriftK(t *testing.T, cfg Config, tr *trace.PowerTrace) (driftK float64, reduced *Model) {
	t.Helper()
	full, err := New(cfg)
	if err != nil {
		t.Fatalf("full model: %v", err)
	}
	rcfg := cfg
	rcfg.Reduced.Enabled = true
	red, err := New(rcfg)
	if err != nil {
		t.Fatalf("reduced model: %v", err)
	}
	if red.SolverBackend() != "reduced" {
		t.Fatalf("backend = %q, want reduced", red.SolverBackend())
	}
	warm := full.SteadyState(avgPowerVector(t, full, tr)).Temps
	fullPts, err := full.NewSession().ReplayRows(append([]float64(nil), warm...), tr.Reader())
	if err != nil {
		t.Fatalf("full replay: %v", err)
	}
	redPts, err := red.NewSession().ReplayRows(append([]float64(nil), warm...), tr.Reader())
	if err != nil {
		t.Fatalf("reduced replay: %v", err)
	}
	if len(fullPts) != len(redPts) {
		t.Fatalf("point count: full %d vs reduced %d", len(fullPts), len(redPts))
	}
	for i := range fullPts {
		for b := range fullPts[i].BlockC {
			if d := math.Abs(fullPts[i].BlockC[b] - redPts[i].BlockC[b]); d > driftK {
				driftK = d
			}
		}
	}
	return driftK, red
}

// TestReducedDriftEV6Fig8: the reduced backend on the paper's primary
// config (EV6 under oil with the secondary path, the Fig. 8 setup) must
// stay within the drift gate over the Fig. 8 pulse replay.
func TestReducedDriftEV6Fig8(t *testing.T) {
	cfg := Config{
		Floorplan: floorplan.EV6(),
		Package:   OilSilicon,
		AmbientK:  318.15,
		Secondary: SecondaryPathConfig{Enabled: true},
	}
	tr := fig8Trace(t, cfg.Floorplan)
	drift, red := maxReplayDriftK(t, cfg, tr)
	if drift > reducedDriftGateK {
		t.Fatalf("max |ΔT| = %g K over Fig. 8 replay, gate %g K", drift, reducedDriftGateK)
	}
	st := red.SolverStats()
	if st.ReducedFallbacks != 0 {
		t.Fatalf("ReducedFallbacks = %d — replay within the gate must not trip", st.ReducedFallbacks)
	}
	if st.ReducedSteps == 0 {
		t.Fatal("ReducedSteps = 0 — replay never exercised the reduced path")
	}
	if st.ReducedOrder <= 0 {
		t.Fatalf("ReducedOrder = %d", st.ReducedOrder)
	}
}

// TestReducedDriftGridOil: a genuinely truncated basis (order well below
// the node count) on a synthetic grid die under oil with the secondary
// path — the package whose per-block layer stack gives each block several
// RC nodes — must also hold the drift gate. The EV6 case reduces to near
// full order; this one cannot: 36 blocks but ~150 nodes, reduced to an
// order that holds the first Krylov block (37 input columns incl. the
// ambient direction at two shift points) and little more.
func TestReducedDriftGridOil(t *testing.T) {
	fp := floorplan.GridDie(16e-3, 16e-3, 6, 6)
	cfg := Config{
		Floorplan: fp,
		Package:   OilSilicon,
		AmbientK:  318.15,
		Secondary: SecondaryPathConfig{Enabled: true},
		Reduced:   ReducedConfig{Order: 80},
	}
	names := fp.Names()
	tr, err := trace.PulseTrain(names, names[len(names)/2], 4.0, 15e-3, 85e-3, 1e-3, 1)
	if err != nil {
		t.Fatal(err)
	}
	drift, red := maxReplayDriftK(t, cfg, tr)
	st := red.SolverStats()
	if n := len(red.AmbientState()); st.ReducedOrder >= n {
		t.Fatalf("order %d not a real reduction of %d nodes", st.ReducedOrder, n)
	}
	if drift > reducedDriftGateK {
		t.Fatalf("max |ΔT| = %g K at order %d, gate %g K", drift, st.ReducedOrder, reducedDriftGateK)
	}
	if st.ReducedFallbacks != 0 {
		t.Fatalf("ReducedFallbacks = %d — replay within the gate must not trip", st.ReducedFallbacks)
	}
}
