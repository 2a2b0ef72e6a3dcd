// Chaos suite: the store driven through internal/faultfs under concurrent
// sweep-shaped load. The invariants (DESIGN.md §12) are the robustness
// contract the serving layer leans on:
//
//   - no operation panics, whatever the disk does;
//   - every error is typed (faultfs.ErrInjected for injected I/O faults,
//     tstore.ErrStagedFull for capped staging buffers);
//   - drop/flush-error counters are monotonic and reconcile exactly with
//     what the writers observed;
//   - after a clean reopen the store serves every acknowledged row, in
//     order, bit-for-bit.
//
// The suite lives in an external test package because faultfs imports
// tstore for the FS seam.
package tstore_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/tstore"
)

// chaosWriter tracks one series' ground truth as the writer drives it.
type chaosWriter struct {
	series   string
	accepted []tstore.Row // rows the store staged (Append nil or non-drop error)
	dropped  int64        // ErrStagedFull rejections
	acked    int64        // accepted rows covered by a successful Flush
}

// driveChaos appends rows concurrently, one goroutine per series, flushing
// periodically and recording acknowledged high-water marks. Returns the
// per-series ground truth. Any unexpected (untyped) error fails the test.
func driveChaos(t *testing.T, st *tstore.Store, nSeries, rowsPerSeries int, onRow func(i int)) []*chaosWriter {
	t.Helper()
	writers := make([]*chaosWriter, nSeries)
	var wg sync.WaitGroup
	errc := make(chan error, nSeries)
	for w := 0; w < nSeries; w++ {
		writers[w] = &chaosWriter{series: fmt.Sprintf("sweep/cell%d/blk", w)}
		wg.Add(1)
		go func(cw *chaosWriter) {
			defer wg.Done()
			for i := 0; i < rowsPerSeries; i++ {
				if onRow != nil {
					onRow(i)
				}
				row := tstore.Row{T: int64(i) * 1_000_000, V: float64(i) * 0.5}
				err := st.Append(cw.series, row.T, row.V)
				switch {
				case err == nil:
					cw.accepted = append(cw.accepted, row)
				case errors.Is(err, tstore.ErrStagedFull):
					cw.dropped++
				case errors.Is(err, faultfs.ErrInjected):
					// Flush failed but the row itself was staged; it retries
					// on a later flush.
					cw.accepted = append(cw.accepted, row)
				default:
					errc <- fmt.Errorf("series %s row %d: untyped error %w", cw.series, i, err)
					return
				}
				if i%97 == 0 {
					if err := st.Flush(); err == nil {
						cw.acked = int64(len(cw.accepted))
					} else if !errors.Is(err, faultfs.ErrInjected) {
						errc <- fmt.Errorf("flush: untyped error %w", err)
						return
					}
				}
			}
		}(writers[w])
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	return writers
}

// settle retries Flush until the injected faults let every series through,
// so all accepted rows become acknowledged before reopen.
func settle(t *testing.T, st *tstore.Store) {
	t.Helper()
	for attempt := 0; ; attempt++ {
		err := st.Flush()
		if err == nil {
			return
		}
		if attempt > 10000 {
			t.Fatalf("flush never settled: %v", err)
		}
	}
}

// verifyReopen opens the store directory on a clean filesystem and checks
// every writer's accepted rows survived, in order, bit-for-bit.
func verifyReopen(t *testing.T, dir string, writers []*chaosWriter) {
	t.Helper()
	st, err := tstore.Open(dir, tstore.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st.Close()
	for _, cw := range writers {
		res, err := st.Query(cw.series, -1<<62, 1<<62, 0)
		if len(cw.accepted) == 0 {
			if err == nil && len(res.Rows) != 0 {
				t.Fatalf("series %s: %d rows recovered, none accepted", cw.series, len(res.Rows))
			}
			continue
		}
		if err != nil {
			t.Fatalf("series %s: query after reopen: %v", cw.series, err)
		}
		if int64(len(res.Rows)) < cw.acked {
			t.Fatalf("series %s: %d rows recovered < %d acknowledged", cw.series, len(res.Rows), cw.acked)
		}
		if len(res.Rows) != len(cw.accepted) {
			t.Fatalf("series %s: %d rows recovered, %d accepted", cw.series, len(res.Rows), len(cw.accepted))
		}
		for i, r := range res.Rows {
			if r != cw.accepted[i] {
				t.Fatalf("series %s row %d: recovered %+v, accepted %+v", cw.series, i, r, cw.accepted[i])
			}
		}
	}
}

// reconcile checks the store's typed counters against the writers' ground
// truth: every drop the writers saw is counted, exactly once.
func reconcile(t *testing.T, st *tstore.Store, writers []*chaosWriter) {
	t.Helper()
	var dropped int64
	for _, cw := range writers {
		dropped += cw.dropped
	}
	if got := st.Stats().DroppedRows; got != dropped {
		t.Fatalf("store DroppedRows %d, writers observed %d", got, dropped)
	}
}

// monitor polls the fault counters during the run, pinning monotonicity.
func monitor(t *testing.T, st *tstore.Store, stop chan struct{}, wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastDrop, lastFlushErr int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := st.Stats()
			if s.DroppedRows < lastDrop || s.FlushErrors < lastFlushErr {
				t.Errorf("counters went backwards: drops %d→%d flushErrs %d→%d",
					lastDrop, s.DroppedRows, lastFlushErr, s.FlushErrors)
				return
			}
			lastDrop, lastFlushErr = s.DroppedRows, s.FlushErrors
			time.Sleep(time.Millisecond)
		}
	}()
}

// TestChaosFlushFaults is the headline chaos run: 10% injected flush
// failures plus short writes under a concurrent 8-series sweep.
func TestChaosFlushFaults(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil, 20260808,
		faultfs.Rule{Op: faultfs.OpWriteAt, Mode: faultfs.ModeError, P: 0.05},
		faultfs.Rule{Op: faultfs.OpWriteAt, Mode: faultfs.ModeShortWrite, P: 0.05},
	)
	st, err := tstore.Open(dir, tstore.Options{FlushRows: 32, MaxStagedRows: 256, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var mwg sync.WaitGroup
	monitor(t, st, stop, &mwg)
	writers := driveChaos(t, st, 8, 2000, nil)
	close(stop)
	mwg.Wait()

	if ffs.TotalInjections() == 0 {
		t.Fatal("no faults injected — the chaos run tested nothing")
	}
	if st.Stats().FlushErrors == 0 {
		t.Fatal("no flush errors recorded despite injected faults")
	}
	settle(t, st)
	for _, cw := range writers {
		cw.acked = int64(len(cw.accepted)) // settle acknowledged everything staged
	}
	reconcile(t, st, writers)
	if err := st.Close(); err != nil && !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("close: untyped error %v", err)
	}
	verifyReopen(t, dir, writers)
}

// TestChaosDiskFull drives writers through full disk-full episodes: a small
// staging cap forces genuine typed drops mid-episode, and everything the
// store accepted must still survive a reopen.
func TestChaosDiskFull(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil, 99)
	st, err := tstore.Open(dir, tstore.Options{FlushRows: 16, MaxStagedRows: 64, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	// Key disk-full episodes off a global row counter so the schedule is
	// load-independent even when writers skew: of every 6000 rows appended
	// across all writers, the middle 2000 land inside an episode. The applied
	// high-water mark keeps a stale writer from re-toggling a boundary that a
	// faster writer already crossed.
	var total, applied atomic.Int64
	var tmu sync.Mutex
	onRow := func(int) {
		n := total.Add(1)
		if n%2000 != 0 {
			return
		}
		tmu.Lock()
		if n > applied.Load() {
			applied.Store(n)
			ffs.SetDiskFull((n/2000)%3 == 1)
		}
		tmu.Unlock()
	}
	writers := driveChaos(t, st, 6, 2000, onRow)
	ffs.SetDiskFull(false)

	var dropped int64
	for _, cw := range writers {
		dropped += cw.dropped
	}
	if dropped == 0 {
		t.Fatal("no rows dropped — episodes never filled the 64-row staging cap")
	}
	settle(t, st)
	for _, cw := range writers {
		cw.acked = int64(len(cw.accepted))
	}
	reconcile(t, st, writers)
	if err := st.Close(); err != nil {
		t.Fatalf("close after episodes ended: %v", err)
	}
	verifyReopen(t, dir, writers)
}

// TestChaosWriterAcceptsPastFailedFlush: on a full disk a Writer accepts
// whole runs longer than FlushRows, column-wise and row by row. The flush
// that fails at the FlushRows boundary is not an append error and cuts no
// run short; Flush reports it, and after the disk heals Flush makes every
// row durable.
func TestChaosWriterAcceptsPastFailedFlush(t *testing.T) {
	ffs := faultfs.New(nil, 11)
	st, err := tstore.Open(t.TempDir(), tstore.Options{FlushRows: 64, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const n = 300
	times, values := make([]float64, n), make([]float64, n)
	for i := range times {
		times[i], values[i] = float64(i)*1e-3, 300+float64(i)*0.25
	}
	w := tstore.NewWriter(st, "run")
	ffs.SetDiskFull(true)
	if err := w.AppendSeries("col", times, values); err != nil {
		t.Fatalf("series append on a full disk: %v", err)
	}
	for i := range times {
		if err := w.Append("row", times[i], values[i]); err != nil {
			t.Fatalf("row %d on a full disk: %v", i, err)
		}
	}
	if w.Rows() != 2*n {
		t.Fatalf("writer accepted %d rows, want %d", w.Rows(), 2*n)
	}
	if st.Stats().FlushErrors == 0 {
		t.Fatal("no flush reached the full disk")
	}
	if err := w.Flush(); !errors.Is(err, faultfs.ErrDiskFull) {
		t.Fatalf("flush on a full disk: %v, want ErrDiskFull", err)
	}
	ffs.SetDiskFull(false)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"run/col", "run/row"} {
		res, err := st.Query(name, -1<<62, 1<<62, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != n {
			t.Fatalf("%s: %d rows durable, want %d", name, len(res.Rows), n)
		}
		for i, r := range res.Rows {
			if r != (tstore.Row{T: tstore.Nanos(times[i]), V: values[i]}) {
				t.Fatalf("%s row %d: %+v", name, i, r)
			}
		}
	}
}

// TestChaosSlowAndFailingReads injects latency and errors on the query
// path's segment reads: queries either succeed bit-exactly or fail with a
// typed error; they never panic and never return wrong data. A full-range
// query makes 32 segment reads, each failing with probability
// (1-0.3)·0.03 ≈ 0.021 (the error rule is only drawn when the delay rule
// did not fire), so about half the queries succeed and both outcomes occur
// in every run. The four readers interleave their draws on the shim's one
// random stream, so the exact outcome sequence varies between runs.
func TestChaosSlowAndFailingReads(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil, 7,
		faultfs.Rule{Op: faultfs.OpReadAt, Mode: faultfs.ModeDelay, P: 0.3, Delay: time.Millisecond},
		faultfs.Rule{Op: faultfs.OpReadAt, Mode: faultfs.ModeError, P: 0.03},
	)
	st, err := tstore.Open(dir, tstore.Options{FlushRows: 32, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const n = 1000
	want := make([]tstore.Row, n)
	for i := range want {
		want[i] = tstore.Row{T: int64(i) * 1_000_000, V: float64(i)}
		if err := st.Append("s", want[i].T, want[i].V); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var okReads, failedReads atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res, err := st.Query("s", 0, int64(n)*1_000_000, 0)
				if err != nil {
					if !errors.Is(err, faultfs.ErrInjected) {
						t.Errorf("untyped query error: %v", err)
						return
					}
					failedReads.Add(1)
					continue
				}
				okReads.Add(1)
				if len(res.Rows) != n {
					t.Errorf("%d rows, want %d", len(res.Rows), n)
					return
				}
				for j, r := range res.Rows {
					if r != want[j] {
						t.Errorf("row %d: %+v != %+v", j, r, want[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if okReads.Load() == 0 || failedReads.Load() == 0 {
		t.Fatalf("want a mix of outcomes, got ok=%d failed=%d", okReads.Load(), failedReads.Load())
	}
}

// TestChaosTornHeader: a flush whose very first file write fails leaves no
// file behind (so retries can recreate it), and a torn data tail from a
// short write is truncated at reopen rather than served.
func TestChaosTornTail(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil, 3,
		faultfs.Rule{Op: faultfs.OpWriteAt, Mode: faultfs.ModeShortWrite, P: 1},
	)
	st, err := tstore.Open(dir, tstore.Options{FlushRows: 8, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		err := st.Append("s", int64(i), float64(i))
		if i < 7 && err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if i == 7 && !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("flush-triggering append: %v", err)
		}
	}
	_ = st.Close() // close's flush fails too: every row stays unacknowledged

	re, err := tstore.Open(dir, tstore.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	stats := re.Stats()
	if stats.Rows != 0 {
		t.Fatalf("%d unacknowledged rows resurrected from a torn tail", stats.Rows)
	}
	if stats.Recovery.TornTails+stats.Recovery.DroppedFiles == 0 {
		t.Fatalf("recovery saw nothing to clean: %+v", stats.Recovery)
	}
}

// TestChaosOpenFaults: recovery over a faulty filesystem fails with a typed
// error instead of panicking or silently succeeding.
func TestChaosOpenFaults(t *testing.T) {
	dir := t.TempDir()
	st, err := tstore.Open(dir, tstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append("s", 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	ffs := faultfs.New(nil, 5, faultfs.Rule{Op: faultfs.OpReadFile, Mode: faultfs.ModeError, P: 1})
	if _, err := tstore.Open(dir, tstore.Options{FS: ffs}); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("open over failing reads: %v, want ErrInjected", err)
	}
}
