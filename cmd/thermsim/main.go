// Command thermsim runs the modified HotSpot thermal model on a floorplan
// and power input, under either cooling configuration.
//
// Usage examples:
//
//	# steady state of the built-in EV6 under oil, gcc average power
//	thermsim -floorplan ev6 -workload gcc -package oil-silicon -direction t2b
//
//	# transient on an external floorplan + ptrace
//	thermsim -flp chip.flp -ptrace chip.ptrace -package air-sink -rconv 0.3 -transient
//
//	# closed-loop DTM policy sweep from a declarative scenario spec
//	thermsim scenario -spec sweep.json -workers 4
//
//	# persist a transient's sampled series, then read a range back
//	thermsim -flp chip.flp -ptrace chip.ptrace -transient -store ./tstore -run run1
//	thermsim query -store ./tstore -series run1/IntReg -downsample 1e-3
//
//	# replay the trace against a running thermsvc (or thermsvc -fleet) and
//	# query it back — retries honor the service's Retry-After convention
//	thermsim -ptrace chip.ptrace -transient -remote localhost:8080 -run run1
//	thermsim query -remote localhost:8080 -series run1/IntReg
//
// With -workload the power comes from the built-in synthetic workload
// pipeline (gcc/mcf/art); with -ptrace it is read from a HotSpot-format
// power trace file. The scenario subcommand runs an internal/scenario spec
// (the same JSON the thermsvc /v1/scenario endpoints accept) and prints
// per-cell DTM metrics. The query subcommand reads a telemetry store
// written by -store here or by thermsvc.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/hotspot"
	"repro/internal/trace"
	"repro/internal/tstore"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "scenario" {
		if err := runScenarioCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "thermsim:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "query" {
		if err := runQueryCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "thermsim:", err)
			os.Exit(1)
		}
		return
	}
	var (
		flpName   = flag.String("floorplan", "ev6", "built-in floorplan: ev6 | athlon")
		flpFile   = flag.String("flp", "", "external floorplan file (HotSpot .flp format; overrides -floorplan)")
		workload  = flag.String("workload", "", "synthetic workload for power: gcc | mcf | art (EV6 floorplan only)")
		ptrace    = flag.String("ptrace", "", "power trace file (HotSpot .ptrace format)")
		pkg       = flag.String("package", "air-sink", "cooling: air-sink | oil-silicon | water-sink")
		direction = flag.String("direction", "uniform", "oil flow direction: uniform | l2r | r2l | b2t | t2b")
		rconv     = flag.Float64("rconv", 0, "override convection resistance (K/W); 0 = package default")
		secondary = flag.Bool("secondary", false, "model the secondary heat transfer path")
		ambientC  = flag.Float64("ambient", 45, "ambient temperature (°C)")
		transient = flag.Bool("transient", false, "run the full power trace transiently (default: steady state of the average)")
		cycles    = flag.Uint64("cycles", 20_000_000, "simulated cycles for -workload")
		showMap   = flag.Bool("map", false, "print an ASCII thermal map")
		storeDir  = flag.String("store", "", "telemetry store directory: persist the -transient sampled series (see 'thermsim query')")
		runName   = flag.String("run", "run1", "run name prefixing persisted series (-store)")
		remote    = flag.String("remote", "", "replay the -transient against a thermsvc/fleet URL instead of solving locally (retries honor Retry-After; -run persists server-side)")
		interval  = flag.Float64("interval", 3.33e-6, "-remote: seconds per ptrace row sent to the server (HotSpot's 10K-cycle default)")
	)
	flag.Parse()
	if *remote != "" {
		if !*transient {
			fmt.Fprintln(os.Stderr, "thermsim: -remote requires -transient (remote replay streams the trace)")
			os.Exit(1)
		}
		if err := runRemoteTransient(*remote, *flpName, *flpFile, *ptrace, *pkg, *direction, *rconv, *secondary, *ambientC, *interval, *runName); err != nil {
			fmt.Fprintln(os.Stderr, "thermsim:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*flpName, *flpFile, *workload, *ptrace, *pkg, *direction, *rconv, *secondary, *ambientC, *transient, *cycles, *showMap, *storeDir, *runName); err != nil {
		fmt.Fprintln(os.Stderr, "thermsim:", err)
		os.Exit(1)
	}
}

// powerSource abstracts where the power rows come from: a fully-resident
// trace (synthetic workloads) or a file streamed twice through the chunked
// decoder — one pass for the average, one for the replay — so memory stays
// O(one row) no matter how long the trace is.
type powerSource struct {
	names    []string
	interval float64
	rows     int
	totalAvg float64
	avg      map[string]float64
	// openRows returns a fresh row stream for replay plus its closer.
	openRows func() (trace.RowReader, func(), error)
}

// memorySource wraps an in-memory trace.
func memorySource(tr *trace.PowerTrace) *powerSource {
	avg := tr.Average()
	pm := make(map[string]float64, len(tr.Names))
	for i, n := range tr.Names {
		pm[n] = avg[i]
	}
	return &powerSource{
		names:    tr.Names,
		interval: tr.Interval,
		rows:     len(tr.Rows),
		totalAvg: tr.TotalAverage(),
		avg:      pm,
		openRows: func() (trace.RowReader, func(), error) {
			return tr.Reader(), func() {}, nil
		},
	}
}

// fileSource streams a trace file: the constructor makes one decoding pass
// to accumulate the per-block average without materializing the rows.
func fileSource(path string, defaultInterval float64) (*powerSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec, err := trace.NewDecoder(f, trace.DecoderOptions{DefaultInterval: defaultInterval})
	if err != nil {
		return nil, err
	}
	names := dec.Names()
	sums := make([]float64, len(names))
	row := make([]float64, len(names))
	rows := 0
	for {
		err := dec.Next(row)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for i, v := range row {
			sums[i] += v
		}
		rows++
	}
	if rows == 0 {
		return nil, fmt.Errorf("trace %s has no power rows", path)
	}
	avg := make(map[string]float64, len(names))
	var total float64
	for i, n := range names {
		avg[n] = sums[i] / float64(rows)
		total += avg[n]
	}
	return &powerSource{
		names:    names,
		interval: dec.Interval(),
		rows:     rows,
		totalAvg: total,
		avg:      avg,
		openRows: func() (trace.RowReader, func(), error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, nil, err
			}
			d, err := trace.NewDecoder(f, trace.DecoderOptions{DefaultInterval: defaultInterval})
			if err != nil {
				f.Close()
				return nil, nil, err
			}
			return d, func() { f.Close() }, nil
		},
	}, nil
}

func run(flpName, flpFile, workload, ptrace, pkg, direction string, rconv float64, secondary bool, ambientC float64, transient bool, cycles uint64, showMap bool, storeDir, runName string) error {
	if storeDir != "" {
		if !transient {
			return fmt.Errorf("-store persists the transient series; add -transient")
		}
		if err := tstore.ValidRunName(runName); err != nil {
			return err
		}
	}
	// Floorplan.
	var fp *floorplan.Floorplan
	switch {
	case flpFile != "":
		f, err := os.Open(flpFile)
		if err != nil {
			return err
		}
		defer f.Close()
		parsed, err := floorplan.Parse(f)
		if err != nil {
			return err
		}
		fp = parsed
	case flpName == "ev6":
		fp = floorplan.EV6()
	case flpName == "athlon":
		fp = floorplan.Athlon()
	default:
		return fmt.Errorf("unknown floorplan %q", flpName)
	}

	// Power.
	var src *powerSource
	switch {
	case workload != "":
		tr, err := core.RunWorkload(core.WorkloadSpec{Name: workload, Cycles: cycles})
		if err != nil {
			return err
		}
		src = memorySource(tr)
	case ptrace != "":
		var err error
		src, err = fileSource(ptrace, 3.33e-6)
		if err != nil {
			return err
		}
	case flpName == "athlon" && flpFile == "":
		tr, err := trace.Step(fp.Names(), floorplan.AthlonPowers(), 1, 1)
		if err != nil {
			return err
		}
		src = memorySource(tr)
	default:
		return fmt.Errorf("need -workload or -ptrace for power input")
	}

	model, err := core.BuildModel(fp, core.PackageSpec{
		Kind: pkg, Rconv: rconv, Direction: direction,
		Secondary: secondary, AmbientK: ambientC + 273.15,
	})
	if err != nil {
		return err
	}
	fmt.Printf("floorplan: %d blocks, %.1f×%.1f mm die\n", fp.N(), fp.Width()*1e3, fp.Height()*1e3)
	fmt.Printf("package: %s, R_conv = %.3f K/W, ambient %.1f °C\n", pkg, model.RconvEffective(), ambientC)
	fmt.Printf("power: %.1f W average over %d samples\n", src.totalAvg, src.rows)

	vec, err := model.PowerVector(src.avg)
	if err != nil {
		return err
	}
	res := model.SteadyState(vec)

	if transient {
		state := append([]float64(nil), res.Temps...)
		// Replay through the streaming row path: file traces never fully
		// materialize, and an in-memory trace takes the identical code
		// path (bit-identical results either way).
		rows, closeRows, err := src.openRows()
		if err != nil {
			return err
		}
		pts, err := model.NewSession().ReplayRows(state, rows)
		closeRows()
		if err != nil {
			return err
		}
		res = model.NewResult(state)
		// Report the peak over the run.
		peak := make([]float64, fp.N())
		for _, p := range pts {
			for i, v := range p.BlockC {
				if v > peak[i] {
					peak[i] = v
				}
			}
		}
		duration := float64(src.rows) * src.interval
		if storeDir != "" {
			st, err := tstore.Open(storeDir, tstore.Options{})
			if err != nil {
				return err
			}
			w := tstore.NewWriter(st, runName)
			if err := hotspot.EmitTracePoints(w, "", fp.Names(), pts); err != nil {
				st.Close()
				return err
			}
			if err := st.Close(); err != nil { // Close flushes staged rows to segments
				return err
			}
			fmt.Printf("\npersisted %d rows under %s/ in %s\n", w.Rows(), runName, storeDir)
		}
		fmt.Printf("\ntransient run: %d points over %.4g s\n", len(pts), duration)
		fmt.Println("block                 final °C   peak °C")
		for i, n := range fp.Names() {
			fmt.Printf("%-20s  %8.1f  %8.1f\n", n, res.BlocksC()[i], peak[i])
		}
	} else {
		fmt.Println("\nsteady state:")
		fmt.Println("block                     °C")
		for i, n := range fp.Names() {
			fmt.Printf("%-20s  %8.1f\n", n, res.BlocksC()[i])
		}
	}
	hotName, hot := res.Hottest()
	coolName, cool := res.Coolest()
	fmt.Printf("\nhottest %s %.1f °C | coolest %s %.1f °C | spread %.1f °C | avg %.1f °C\n",
		hotName, hot, coolName, cool, res.Spread(), res.AverageC())

	if showMap {
		printASCIIMap(res.Grid(64, 32), 64, 32)
	}
	return nil
}

// printASCIIMap renders a Celsius grid with a coarse intensity ramp.
func printASCIIMap(grid []float64, nx, ny int) {
	lo, hi := grid[0], grid[0]
	for _, v := range grid {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	ramp := " .:-=+*#%@"
	fmt.Printf("\nthermal map (%.1f .. %.1f °C):\n", lo, hi)
	for iy := ny - 1; iy >= 0; iy-- {
		for ix := 0; ix < nx; ix++ {
			v := grid[iy*nx+ix]
			k := 0
			if hi > lo {
				k = int((v - lo) / (hi - lo) * float64(len(ramp)-1))
			}
			fmt.Print(string(ramp[k]))
		}
		fmt.Println()
	}
}
