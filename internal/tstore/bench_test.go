package tstore

import (
	"fmt"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/hotspot"
	"repro/internal/trace"
)

// BenchmarkTstoreIngest is the headline ingestion number: synthetic
// telemetry appended row-by-row across 16 series through the public Append
// path (staging, codec, segment writes and rollup folds all included). The
// rows/s metric is the acceptance criterion — the store must sustain ≥1M
// rows/s on one core to keep up with a replay sweep.
func BenchmarkTstoreIngest(b *testing.B) {
	const seriesN = 16
	const rowsPerOp = 1 << 17 // 128Ki rows per iteration, spread over the series
	st, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	names := make([]string, seriesN)
	for i := range names {
		names[i] = fmt.Sprintf("cell%d/IntReg", i)
	}
	t := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < rowsPerOp/seriesN; r++ {
			v := 300 + float64(t%997)*0.03125
			for _, name := range names {
				if err := st.Append(name, t, v); err != nil {
					b.Fatal(err)
				}
			}
			t += 100_000 // 100 µs cadence
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rowsPerOp)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkTstoreIngestSweep measures the full replay→sink path the
// service uses: replay points from a real EV6 trace sweep are emitted
// through EmitTracePoints into the store. The replay itself runs outside
// the timer; the number is the emit+ingest cost alone.
func BenchmarkTstoreIngestSweep(b *testing.B) {
	fp := floorplan.EV6()
	model, err := hotspot.New(hotspot.Config{
		Floorplan: fp,
		Package:   hotspot.AirSink,
		Air:       hotspot.AirSinkConfig{RConvec: 0.3},
	})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := trace.PulseTrain(fp.Names(), "IntReg", 4, 2e-3, 3e-3, 0.1e-3, 20)
	if err != nil {
		b.Fatal(err)
	}
	pts, errs := hotspot.ReplayBatchResults([]hotspot.ReplayJob{{Model: model, Rows: tr.Reader()}}, 1)
	if errs[0] != nil {
		b.Fatal(errs[0])
	}
	rows := len(pts[0]) * fp.N()
	st, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	names := fp.Names()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := hotspot.EmitTracePoints(NewWriter(st, fmt.Sprintf("run%d", i)), fmt.Sprintf("run%d", i), names, pts[0]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// benchStore populates a store with one long flushed series for the query
// benchmarks: 1M rows at a 100 µs cadence (100 s of telemetry), staged in
// one AppendRows call that flushes every FlushRows rows under the default
// options.
func benchStore(b *testing.B) *Store {
	b.Helper()
	st, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	const n = 1 << 20
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{T: int64(i) * 100_000, V: 300 + float64(i%211)*0.0625}
	}
	if _, err := st.AppendRows("s", rows); err != nil {
		b.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkTstoreQueryRollup is the query-latency headline for the rollup
// fast path: a full-range 100ms-downsample over 1M flushed rows (~1000
// buckets, all rollup-served).
func BenchmarkTstoreQueryRollup(b *testing.B) {
	st := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := st.Query("s", 0, 1<<40, 100_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if res.RawBuckets != 0 {
			b.Fatalf("rollup benchmark fell off the fast path: %d raw buckets", res.RawBuckets)
		}
	}
}

// BenchmarkTstoreQueryRaw measures a raw range read of ~64Ki rows: segment
// location, decode and filtering.
func BenchmarkTstoreQueryRaw(b *testing.B) {
	st := benchStore(b)
	const span = int64(1<<16) * 100_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := st.Query("s", 0, span, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1<<16 {
			b.Fatalf("%d rows", len(res.Rows))
		}
	}
}
