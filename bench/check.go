package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/hotspot"
	"repro/internal/service"
)

// relTol is the tolerance every served number is held to against its
// reference: the golden-fixture tolerance, relative.
const relTol = 1e-9

// closeTo reports whether got matches want within relTol (relative to the
// larger magnitude).
func closeTo(got, want float64) bool {
	if got == want {
		return true
	}
	scale := math.Max(math.Abs(got), math.Abs(want))
	return math.Abs(got-want) <= relTol*scale
}

// checkClose returns a mismatch error naming what differs.
func checkClose(what string, got, want float64) error {
	if !closeTo(got, want) {
		return fmt.Errorf("%s = %.17g, reference %.17g", what, got, want)
	}
	return nil
}

// checkBlockMap holds a name → °C map against reference values in floorplan
// order.
func checkBlockMap(what string, got map[string]float64, names []string, want []float64) error {
	if len(got) != len(names) {
		return fmt.Errorf("%s has %d blocks, reference %d", what, len(got), len(names))
	}
	for i, n := range names {
		v, ok := got[n]
		if !ok {
			return fmt.Errorf("%s lacks block %q", what, n)
		}
		if err := checkClose(what+"["+n+"]", v, want[i]); err != nil {
			return err
		}
	}
	return nil
}

// checkVec holds a vector against its reference.
func checkVec(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s has %d values, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if err := checkClose(fmt.Sprintf("%s[%d]", what, i), got[i], want[i]); err != nil {
			return err
		}
	}
	return nil
}

// configOf resolves a service model spec into the hotspot configuration the
// service compiles for it, by the same public route (built-in or grid
// floorplan, core.BuildConfig). It fails if the fingerprints disagree, so a
// reference can never be computed on a different model than the one served.
func configOf(spec service.ModelSpec) (hotspot.Config, error) {
	var fp *floorplan.Floorplan
	switch {
	case spec.Floorplan == "" || spec.Floorplan == "ev6":
		fp = floorplan.EV6()
	case strings.HasPrefix(spec.Floorplan, "grid:"):
		dims := strings.Split(strings.TrimPrefix(spec.Floorplan, "grid:"), "x")
		if len(dims) != 2 {
			return hotspot.Config{}, fmt.Errorf("bad grid floorplan %q", spec.Floorplan)
		}
		nx, errX := strconv.Atoi(dims[0])
		ny, errY := strconv.Atoi(dims[1])
		if errX != nil || errY != nil {
			return hotspot.Config{}, fmt.Errorf("bad grid floorplan %q", spec.Floorplan)
		}
		fp = floorplan.GridDie(16e-3, 16e-3, nx, ny)
	default:
		return hotspot.Config{}, fmt.Errorf("unsupported floorplan %q", spec.Floorplan)
	}
	ambientC := spec.AmbientC
	if ambientC == 0 {
		ambientC = 45
	}
	cfg, err := core.BuildConfig(fp, core.PackageSpec{
		Kind:      spec.Package,
		Rconv:     spec.Rconv,
		Direction: spec.Direction,
		Secondary: spec.Secondary,
		AmbientK:  ambientC + 273.15,
	})
	if err != nil {
		return cfg, err
	}
	served, err := spec.Fingerprint()
	if err != nil {
		return cfg, err
	}
	if cfg.Fingerprint() != served {
		return cfg, fmt.Errorf("reference config for %+v does not match the served model", spec)
	}
	return cfg, nil
}

// compile builds the reference model for a spec.
func compile(spec service.ModelSpec) (*hotspot.Model, error) {
	cfg, err := configOf(spec)
	if err != nil {
		return nil, err
	}
	return hotspot.New(cfg)
}

// finalAndPeak reduces a replay to its final and per-block peak
// temperatures, the summary every replay endpoint reports.
func finalAndPeak(pts []hotspot.TracePoint) (final, peak []float64) {
	final = pts[len(pts)-1].BlockC
	peak = append([]float64(nil), pts[0].BlockC...)
	for _, p := range pts {
		for b, v := range p.BlockC {
			if v > peak[b] {
				peak[b] = v
			}
		}
	}
	return final, peak
}

// checkTransient holds a transient response against its reference replay:
// step count, final and peak maps, and every returned sample point (each
// must be one of the reference's instants, at its temperatures).
func checkTransient(resp *service.TransientResponse, names []string, ref []hotspot.TracePoint) error {
	if resp.Steps != len(ref)-1 {
		return fmt.Errorf("steps = %d, reference %d", resp.Steps, len(ref)-1)
	}
	if len(resp.Blocks) != len(names) {
		return fmt.Errorf("blocks has %d names, reference %d", len(resp.Blocks), len(names))
	}
	for i, n := range names {
		if resp.Blocks[i] != n {
			return fmt.Errorf("blocks[%d] = %q, reference %q", i, resp.Blocks[i], n)
		}
	}
	final, peak := finalAndPeak(ref)
	if err := checkBlockMap("final_c", resp.FinalC, names, final); err != nil {
		return err
	}
	if err := checkBlockMap("peak_c", resp.PeakC, names, peak); err != nil {
		return err
	}
	if len(resp.Points) == 0 {
		return fmt.Errorf("no sample points")
	}
	k := 0
	for _, p := range resp.Points {
		for k < len(ref) && ref[k].Time != p.TimeS {
			k++
		}
		if k == len(ref) {
			return fmt.Errorf("point at t=%g is not a reference instant", p.TimeS)
		}
		if err := checkVec(fmt.Sprintf("points[t=%g]", p.TimeS), p.BlockC, ref[k].BlockC); err != nil {
			return err
		}
	}
	return nil
}
