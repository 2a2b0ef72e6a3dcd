package tstore

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestStoreAppendFlushQueryRaw(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{FlushRows: 8})
	var want []Row
	for i := 0; i < 37; i++ {
		r := Row{T: int64(i) * 10, V: 300 + float64(i)}
		want = append(want, r)
		if err := st.Append("core/s0", r.T, r.V); err != nil {
			t.Fatal(err)
		}
	}
	res, err := st.Query("core/s0", 0, 1<<40, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(res.Rows), len(want))
	}
	for i := range want {
		if res.Rows[i] != want[i] {
			t.Fatalf("row %d: got %+v want %+v", i, res.Rows[i], want[i])
		}
	}
	// Sub-range, half-open: t in [100, 200) → rows 10..19.
	res, err = st.Query("core/s0", 100, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 || res.Rows[0].T != 100 || res.Rows[9].T != 190 {
		t.Fatalf("sub-range query wrong: %+v", res.Rows)
	}

	stats := st.Stats()
	if stats.Series != 1 || stats.Rows != 37 || stats.Segments != 4 || stats.Staged != 5 {
		t.Fatalf("stats %+v", stats)
	}
	infos := st.Series()
	if len(infos) != 1 || infos[0].Name != "core/s0" || infos[0].Rows != 37 || infos[0].FirstT != 0 || infos[0].LastT != 360 {
		t.Fatalf("series infos %+v", infos)
	}
}

func TestStoreReopenKeepsData(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{FlushRows: 16})
	for i := 0; i < 100; i++ {
		if err := st.Append("a", int64(i), float64(i)); err != nil {
			t.Fatal(err)
		}
		if err := st.Append("b/nested", int64(i), -float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := mustOpen(t, dir, Options{FlushRows: 16})
	if got := st2.SeriesNames(); len(got) != 2 || got[0] != "a" || got[1] != "b/nested" {
		t.Fatalf("series after reopen: %v", got)
	}
	if st2.Stats().Recovery.Rows != 200 {
		t.Fatalf("recovery stats %+v", st2.Stats().Recovery)
	}
	for _, name := range []string{"a", "b/nested"} {
		res, err := st2.Query(name, 0, 100, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 100 {
			t.Fatalf("series %q: %d rows after reopen", name, len(res.Rows))
		}
	}
	// Appends continue after the recovered tail.
	if err := st2.Append("a", 50, 1); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("append before tail: %v", err)
	}
	if err := st2.Append("a", 100, 1); err != nil {
		t.Fatal(err)
	}
}

func TestStoreErrors(t *testing.T) {
	st := mustOpen(t, t.TempDir(), Options{})
	if _, err := st.Query("nope", 0, 1, 0); !errors.Is(err, ErrUnknownSeries) {
		t.Fatalf("unknown series: %v", err)
	}
	if err := st.Append("", 0, 1); err == nil {
		t.Fatal("empty series name accepted")
	}
	if err := st.Append("s", 0, math.NaN()); err == nil {
		t.Fatal("NaN accepted")
	}
	if err := st.Append("s", 0, math.Inf(1)); err == nil {
		t.Fatal("+Inf accepted")
	}
	if err := st.Append("s", 5, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("s", 4, 1); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("out of order: %v", err)
	}
	if err := st.Append("s", 5, 2); err != nil { // equal timestamps are allowed
		t.Fatal(err)
	}
	if _, err := st.Query("s", 7, 7, 0); err == nil {
		t.Fatal("empty range accepted")
	}
	if _, err := st.Query("s", 0, 10, -1); err == nil {
		t.Fatal("negative downsample accepted")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := st.Append("s", 9, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on closed store: %v", err)
	}
	if _, err := st.Query("s", 0, 10, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("query on closed store: %v", err)
	}
}

func TestStoreBadOptions(t *testing.T) {
	if _, err := Open(t.TempDir(), Options{FlushRows: -1}); err == nil {
		t.Fatal("negative FlushRows accepted")
	}
	if _, err := Open(t.TempDir(), Options{Granularities: []int64{0}}); err == nil {
		t.Fatal("zero granularity accepted")
	}
}

func TestFilenameCollisionProbe(t *testing.T) {
	st := mustOpen(t, t.TempDir(), Options{FlushRows: 1})
	// Distinct names that sanitize identically; the hash disambiguates, and
	// the probe loop exists for the (theoretical) full-filename collision.
	for _, name := range []string{"cell#0", "cell!0", "cell?0"} {
		if err := st.Append(name, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	files, err := filepath.Glob(filepath.Join(st.Dir(), "*.tseg"))
	if err != nil || len(files) != 3 {
		t.Fatalf("files %v err %v", files, err)
	}
}

func TestForeignFileDropped(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "junk.tseg"), []byte("not a store file"), 0o644); err != nil {
		t.Fatal(err)
	}
	st := mustOpen(t, dir, Options{})
	if st.Stats().Recovery.DroppedFiles != 1 {
		t.Fatalf("recovery %+v", st.Stats().Recovery)
	}
	if _, err := os.Stat(filepath.Join(dir, "junk.tseg")); !os.IsNotExist(err) {
		t.Fatalf("junk file still present: %v", err)
	}
}

func TestNanosSeconds(t *testing.T) {
	for _, tc := range []struct {
		sec  float64
		want int64
	}{{0, 0}, {1e-3, 1_000_000}, {0.25, 250_000_000}, {1.0, 1_000_000_000}, {-2e-9, -2}} {
		if got := Nanos(tc.sec); got != tc.want {
			t.Fatalf("Nanos(%v) = %d, want %d", tc.sec, got, tc.want)
		}
	}
	if Seconds(1_500_000_000) != 1.5 {
		t.Fatal("Seconds(1.5e9) != 1.5")
	}
	// Monotonic inputs stay monotonic through the rounding.
	prev := int64(math.MinInt64)
	for i := 0; i < 10000; i++ {
		n := Nanos(float64(i) * 1e-4)
		if n <= prev && i > 0 {
			t.Fatalf("Nanos not strictly increasing at step %d", i)
		}
		prev = n
	}
}

func TestAlignDown(t *testing.T) {
	for _, tc := range []struct{ t, g, want int64 }{
		{0, 10, 0}, {9, 10, 0}, {10, 10, 10}, {-1, 10, -10}, {-10, 10, -10}, {-11, 10, -20},
	} {
		if got := alignDown(tc.t, tc.g); got != tc.want {
			t.Fatalf("alignDown(%d,%d) = %d, want %d", tc.t, tc.g, got, tc.want)
		}
	}
}

func TestValidRunName(t *testing.T) {
	for _, ok := range []string{"run1", "a/b/c", "A-1_2.x", "r"} {
		if err := ValidRunName(ok); err != nil {
			t.Fatalf("%q rejected: %v", ok, err)
		}
	}
	long := make([]byte, 129)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "/lead", "trail/", "a//b", "sp ace", "new\nline", string(long)} {
		if err := ValidRunName(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestWriterPrefixesAndCounts(t *testing.T) {
	st := mustOpen(t, t.TempDir(), Options{})
	w := NewWriter(st, "run1")
	if err := w.Append("cell0/hot", 1e-3, 345.5); err != nil {
		t.Fatal(err)
	}
	if err := w.Append("cell0/hot", 2e-3, 346.0); err != nil {
		t.Fatal(err)
	}
	if w.Rows() != 2 {
		t.Fatalf("writer rows %d", w.Rows())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := st.Query("run1/cell0/hot", 0, 1<<40, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0].T != 1_000_000 {
		t.Fatalf("queried rows %+v", res.Rows)
	}
	// No prefix: series name used verbatim.
	w2 := NewWriter(st, "")
	if err := w2.Append("bare", 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Query("bare", 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	// A series the writer resolved before Close refuses rows after it.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append("cell0/hot", 3e-3, 347.0); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := w.AppendSeries("cell0/hot", []float64{3e-3}, []float64{347.0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("series append after close: %v", err)
	}
}

// TestAppendRowsMatchesAppends: one AppendRows call of 70 000 rows — more
// than the default MaxStagedRows — succeeds on a healthy disk. It leaves
// the same segments and staged rows as 70 000 single Appends, and after
// Flush the same files and Query answers.
func TestAppendRowsMatchesAppends(t *testing.T) {
	rows := make([]Row, 70_000)
	for i := range rows {
		rows[i] = Row{T: int64(i) * 100_000, V: 300 + float64(i%211)*0.0625}
	}
	batch := mustOpen(t, t.TempDir(), Options{})
	single := mustOpen(t, t.TempDir(), Options{})
	if n, err := batch.AppendRows("s", rows); err != nil || n != len(rows) {
		t.Fatalf("AppendRows staged %d of %d rows: %v", n, len(rows), err)
	}
	for _, r := range rows {
		if err := single.Append("s", r.T, r.V); err != nil {
			t.Fatal(err)
		}
	}
	bs, ss := batch.series["s"], single.series["s"]
	if len(bs.segs) != 70_000/4096 || !slices.Equal(bs.segs, ss.segs) {
		t.Fatalf("segments: AppendRows %d, Appends %d, want %d alike", len(bs.segs), len(ss.segs), 70_000/4096)
	}
	if !slices.Equal(bs.staged, ss.staged) || len(bs.staged) != 70_000%4096 {
		t.Fatalf("staged: AppendRows %d rows, Appends %d, want %d alike", len(bs.staged), len(ss.staged), 70_000%4096)
	}
	if b, s := batch.Stats(), single.Stats(); b != s {
		t.Fatalf("stats differ: AppendRows %+v, Appends %+v", b, s)
	}

	for _, st := range []*Store{batch, single} {
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	bFiles, _ := filepath.Glob(filepath.Join(batch.Dir(), "*.tseg"))
	sFiles, _ := filepath.Glob(filepath.Join(single.Dir(), "*.tseg"))
	if len(bFiles) != 1 || len(sFiles) != 1 || filepath.Base(bFiles[0]) != filepath.Base(sFiles[0]) {
		t.Fatalf("files %v vs %v", bFiles, sFiles)
	}
	bBytes, err := os.ReadFile(bFiles[0])
	if err != nil {
		t.Fatal(err)
	}
	sBytes, err := os.ReadFile(sFiles[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bBytes, sBytes) {
		t.Fatal("AppendRows and Appends wrote different file bytes")
	}
	for _, g := range []int64{0, 100_000_000, 7_000_000} {
		br, err := batch.Query("s", 0, 1<<40, g)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := single.Query("s", 0, 1<<40, g)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(br.Rows, sr.Rows) || !slices.Equal(br.Buckets, sr.Buckets) {
			t.Fatalf("downsample %d: query answers differ", g)
		}
	}

	// A rejected row stops the batch: the rows before it stay staged and
	// the count says how many.
	st := mustOpen(t, t.TempDir(), Options{})
	bad := []Row{{T: 10, V: 1}, {T: 20, V: 2}, {T: 15, V: 3}, {T: 30, V: 4}}
	if n, err := st.AppendRows("s", bad); n != 2 || !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("out-of-order batch: staged %d, err %v; want 2, ErrOutOfOrder", n, err)
	}
	if got := st.Stats().Staged; got != 2 {
		t.Fatalf("%d rows staged, want 2", got)
	}
}

// TestWriterFlushScope: a writer's Flush flushes only the series it
// appended to, leaving another writer's staged rows staged, and releases
// the staging buffers of the series it emptied. A flush at FlushRows keeps
// the buffer.
func TestWriterFlushScope(t *testing.T) {
	st := mustOpen(t, t.TempDir(), Options{FlushRows: 64})
	times, values := make([]float64, 100), make([]float64, 100)
	for i := range times {
		times[i], values[i] = float64(i)*1e-4, 300+float64(i)
	}
	a, b := NewWriter(st, "a"), NewWriter(st, "b")
	for _, w := range []*Writer{a, b} {
		for _, name := range []string{"x", "y"} {
			if err := w.AppendSeries(name, times, values); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a/x", "a/y"} {
		if se := st.series[name]; se.staged != nil {
			t.Fatalf("%s: flushed series keeps a %d-row staging buffer", name, cap(se.staged))
		}
	}
	for _, name := range []string{"b/x", "b/y"} {
		se := st.series[name]
		if len(se.staged) != 100-64 {
			t.Fatalf("%s: %d rows staged after the other writer's flush, want %d", name, len(se.staged), 100-64)
		}
		if cap(se.staged) < 64 {
			t.Fatalf("%s: the flush at FlushRows released the staging buffer", name)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Staged != 0 || s.Rows != 400 {
		t.Fatalf("stats after both flushes %+v", s)
	}
}
