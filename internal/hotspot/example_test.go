package hotspot_test

import (
	"fmt"

	"repro/internal/floorplan"
	"repro/internal/hotspot"
	"repro/internal/trace"
)

// ExampleNew builds the two cooling configurations the paper contrasts and
// compares their steady states at the same overall convection resistance.
func ExampleNew() {
	fp := floorplan.EV6()
	power := map[string]float64{"Dcache": 16.0} // ≈2 W/mm²

	oil, err := hotspot.New(hotspot.Config{
		Floorplan: fp,
		Package:   hotspot.OilSilicon,
		AmbientK:  295.15, // 22 °C
		Oil:       hotspot.OilConfig{TargetRconv: 1.0},
	})
	if err != nil {
		panic(err)
	}
	air, err := hotspot.New(hotspot.Config{
		Floorplan: fp,
		Package:   hotspot.AirSink,
		AmbientK:  295.15,
		Air:       hotspot.AirSinkConfig{RConvec: 1.0},
	})
	if err != nil {
		panic(err)
	}
	for _, m := range []*hotspot.Model{oil, air} {
		vec, err := m.PowerVector(power)
		if err != nil {
			panic(err)
		}
		res := m.SteadyState(vec)
		name, _ := res.Hottest()
		fmt.Printf("%s: hottest block %s, R_conv %.2f K/W\n",
			m.Config().Package, name, m.RconvEffective())
	}
	// Output:
	// OIL-SILICON: hottest block Dcache, R_conv 1.00 K/W
	// AIR-SINK: hottest block Dcache, R_conv 1.00 K/W
}

// ExampleSession_ReplayRows_pulse drives a model with a four-row power
// trace: 100 W for the first half second, then nothing.
func ExampleSession_ReplayRows_pulse() {
	fp := floorplan.UniformDie("die", 0.02, 0.02)
	m, err := hotspot.New(hotspot.Config{
		Floorplan: fp,
		Package:   hotspot.OilSilicon,
		AmbientK:  300,
	})
	if err != nil {
		panic(err)
	}
	tr, err := trace.PulseTrain(fp.Names(), "die", 100, 0.5, 0.5, 0.25, 1)
	if err != nil {
		panic(err)
	}
	pts, err := m.NewSession().ReplayRows(m.AmbientState(), tr.Reader())
	if err != nil {
		panic(err)
	}
	for _, p := range pts {
		fmt.Printf("t=%.2fs rise=%.0fK\n", p.Time, p.BlockC[0]-26.85)
	}
	// Output:
	// t=0.00s rise=0K
	// t=0.25s rise=41K
	// t=0.50s rise=65K
	// t=0.75s rise=40K
	// t=1.00s rise=25K
}

// ExampleSession_ReplayRows streams a power trace through a per-goroutine
// simulation session, one backward-Euler step per row. The row source here
// is an in-memory trace; a network stream decoded with trace.NewDecoder
// replays bit-identically through the same path.
func ExampleSession_ReplayRows() {
	model, err := hotspot.New(hotspot.Config{
		Floorplan: floorplan.EV6(),
		Package:   hotspot.OilSilicon,
		Oil:       hotspot.OilConfig{TargetRconv: 1.0},
	})
	if err != nil {
		panic(err)
	}
	// 20 ms of 3 W bursts into the integer register file, 1 ms rows.
	tr, err := trace.PulseTrain(floorplan.EV6().Names(), "IntReg", 3.0, 5e-3, 5e-3, 1e-3, 2)
	if err != nil {
		panic(err)
	}
	session := model.NewSession()
	temps := model.AmbientState()
	points, err := session.ReplayRows(temps, tr.Reader())
	if err != nil {
		panic(err)
	}
	first := points[0].BlockC[floorplan.EV6().Index("IntReg")]
	last := points[len(points)-1].BlockC[floorplan.EV6().Index("IntReg")]
	fmt.Println("points recorded:", len(points))
	fmt.Println("IntReg warmed up:", last > first)
	// Output:
	// points recorded: 21
	// IntReg warmed up: true
}
