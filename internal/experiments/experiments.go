// Package experiments regenerates every table and figure of the paper's
// evaluation. Each Fig*/Sec* function runs one experiment and returns a
// result struct whose String method prints the same rows/series the paper
// reports. cmd/experiments drives them all; the repository-level benchmarks
// wrap them one-to-one.
//
// Options.Quick shortens the workload-driven experiments (fewer simulated
// cycles, coarser grids) for use in tests and benchmarks; the shapes the
// paper reports are preserved either way.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/floorplan"
	"repro/internal/hotspot"
	"repro/internal/trace"
)

// Options tune experiment cost.
type Options struct {
	// Quick reduces simulated cycles and grid resolutions.
	Quick bool
}

// table renders an aligned text table.
func table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", width[i], c)
		}
		sb.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return sb.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// evOil builds an EV6 OIL-SILICON model.
func evOil(dir hotspot.FlowDirection, targetR float64, secondary bool, ambientK float64) (*hotspot.Model, error) {
	return hotspot.New(hotspot.Config{
		Floorplan: floorplan.EV6(),
		Package:   hotspot.OilSilicon,
		AmbientK:  ambientK,
		Oil:       hotspot.OilConfig{Direction: dir, TargetRconv: targetR},
		Secondary: hotspot.SecondaryPathConfig{Enabled: secondary},
	})
}

// evAir builds an EV6 AIR-SINK model.
func evAir(rconvec float64, secondary bool, ambientK float64) (*hotspot.Model, error) {
	return hotspot.New(hotspot.Config{
		Floorplan: floorplan.EV6(),
		Package:   hotspot.AirSink,
		AmbientK:  ambientK,
		Air:       hotspot.AirSinkConfig{RConvec: rconvec},
		Secondary: hotspot.SecondaryPathConfig{Enabled: secondary},
	})
}

// avgPowerMap converts a trace's average to a per-block map.
func avgPowerMap(tr *trace.PowerTrace) map[string]float64 {
	avg := tr.Average()
	out := make(map[string]float64, len(tr.Names))
	for i, n := range tr.Names {
		out[n] = avg[i]
	}
	return out
}

// hottestBlocks returns the n hottest block names from a per-block Celsius
// map.
func hottestBlocks(blockC map[string]float64, n int) []string {
	names := make([]string, 0, len(blockC))
	for k := range blockC {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		if blockC[names[i]] != blockC[names[j]] {
			return blockC[names[i]] > blockC[names[j]]
		}
		return names[i] < names[j]
	})
	if n > len(names) {
		n = len(names)
	}
	return names[:n]
}

// areaAvgC returns the area-weighted average of per-block Celsius
// temperatures in floorplan order.
func areaAvgC(fp *floorplan.Floorplan, blockC []float64) float64 {
	var sum, area float64
	for i, b := range fp.Blocks {
		sum += blockC[i] * b.Area()
		area += b.Area()
	}
	return sum / area
}

// blockCMap converts a result to a name→Celsius map.
func blockCMap(m *hotspot.Model, r *hotspot.Result) map[string]float64 {
	out := make(map[string]float64, m.Floorplan().N())
	for i, name := range m.Floorplan().Names() {
		out[name] = r.BlocksC()[i]
	}
	return out
}
