package scenario

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens")

// liveSpecPath is a copy of the benchmark's live-CPU spec: gcc then mcf,
// 1 ms each at 0.1 ms control steps, over two packages and two triggers.
const liveSpecPath = "testdata/live-cpu.json"

// loadSpec parses a spec file.
func loadSpec(t testing.TB, path string) *Spec {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spec, err := ParseSpec(f)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if string(want) != got {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if wl[i] != gl[i] {
				t.Fatalf("%s line %d:\n  golden %s\n  got    %s", path, i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("%s: golden has %d lines, got %d", path, len(wl), len(gl))
	}
}

// TestLiveTelemetryGolden pins every telemetry row the live-CPU spec
// records, exactly: series, simulation time and sensed value, each float
// printed with 17 significant digits so any changed bit shows. The CPUs
// behind the sensed temperatures are the co-simulated gcc and mcf streams,
// so this also pins the microarchitecture's activity counts. Workers 1 and
// 4 must both reproduce it.
func TestLiveTelemetryGolden(t *testing.T) {
	c, err := Compile(loadSpec(t, liveSpecPath), Options{})
	if err != nil {
		t.Fatal(err)
	}
	serial := liveTelemetry(t, c, 1)
	checkGolden(t, liveTelemetryGolden, serial)
	if liveTelemetry(t, c, 4) != serial {
		t.Fatal("workers 4 telemetry differs from workers 1")
	}
}

// liveTelemetryGolden holds the live-CPU spec's telemetry rows.
const liveTelemetryGolden = "testdata/live_telemetry.golden"

// liveTelemetry runs c's grid at the given worker count and prints every
// telemetry row in grid order, as the live telemetry golden holds them.
func liveTelemetry(t *testing.T, c *Compiled, workers int) string {
	t.Helper()
	sink := &gridSink{}
	for _, r := range c.RunGridTelemetry(context.Background(), workers, nil, sink) {
		if r.Err != nil {
			t.Fatalf("workers %d cell %d: %v", workers, r.Cell.Index, r.Err)
		}
	}
	var b strings.Builder
	for _, cell := range c.Cells() {
		for _, series := range c.TelemetrySeries(cell.Index) {
			rows := sink.rows[series]
			if len(rows) == 0 {
				t.Fatalf("workers %d: series %s recorded no rows", workers, series)
			}
			for _, row := range rows {
				fmt.Fprintf(&b, "%s %.17g %.17g\n", series, row.t, row.v)
			}
		}
	}
	return b.String()
}
