package hotspot

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/rcnet"
)

// BenchmarkLockstepWidths times one backward-Euler step of a K-wide
// lockstep group through rcnet.Solver.Replay, whose step solves the group
// with one SolveBatch, on the two factors the served grids step: EV6
// air-sink (the dtm-grid pulse requests' 6-wide groups) and the
// grid:64x64 oil model (replay-grid64's 4-wide groups). Rows 5, 6 and 7
// are the remainders SolveBatch runs as one padded 8-wide pass; row 4+1
// steps a 4-wide group and a lone state as two groups, the traversals a
// 5-wide group cost when it was split that way. The ns/step metric is the
// wall time of one step of every group in the row.
func BenchmarkLockstepWidths(b *testing.B) {
	for _, f := range []struct {
		name  string
		cfg   Config
		steps int // per Replay call
	}{
		{"ev6-air", Config{Floorplan: floorplan.EV6(), Package: AirSink, Air: AirSinkConfig{RConvec: 1}}, 2000},
		{"grid64-oil", Config{Floorplan: floorplan.GridDie(16e-3, 16e-3, 64, 64), Package: OilSilicon}, 20},
	} {
		m, err := New(f.cfg)
		if err != nil {
			b.Fatal(err)
		}
		power := make([]float64, m.NodeCount())
		power[0] = 2
		temps := make([][]float64, 8)
		for k := range temps {
			temps[k] = m.AmbientState()
		}
		// replay steps the states temps[:k] as one lockstep group.
		replay := func(k int) {
			jobs := make([]rcnet.Job, k)
			for j := range jobs {
				left := f.steps
				jobs[j] = rcnet.Job{Temp: temps[j], Power: func(p []float64) error {
					if left == 0 {
						return io.EOF
					}
					left--
					copy(p, power)
					return nil
				}}
			}
			for _, err := range m.solver.Replay(1e-3, jobs) {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		for _, row := range []struct {
			name   string
			groups []int
		}{
			{"1", []int{1}}, {"4", []int{4}}, {"4+1", []int{4, 1}},
			{"5", []int{5}}, {"6", []int{6}}, {"7", []int{7}}, {"8", []int{8}},
		} {
			b.Run(fmt.Sprintf("%s/%s", f.name, row.name), func(b *testing.B) {
				for _, k := range row.groups {
					replay(k) // warm the factor cache and scratch
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, k := range row.groups {
						replay(k)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*f.steps), "ns/step")
			})
		}
	}
}
