package tstore

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Writer adapts a Store to the float-seconds telemetry sinks the simulation
// layers emit into: hotspot.TelemetrySink takes whole series through
// AppendSeries, scenario.TelemetrySink single rows through Append. It
// prefixes every series with a run name so repeated replays land in
// distinct, queryable namespaces, and converts times through Nanos so every
// producer shares one timestamp mapping.
//
// A Writer accepts rows and Flush makes them durable. The append methods
// return only rejections — ErrOutOfOrder, ErrStagedFull, a non-finite
// value, ErrClosed — and a rejected row is not staged. A flush that fails
// when a series reaches FlushRows leaves its rows staged, and Flush
// reports the failure. All methods are safe for concurrent use.
type Writer struct {
	st   *Store
	run  string
	rows atomic.Int64

	mu     sync.Mutex
	series map[string]*series // by unprefixed name: every series this writer resolved
}

// rowBufs recycles AppendSeries' chunk buffers across writers.
var rowBufs = sync.Pool{New: func() any { return new([]Row) }}

// NewWriter returns a sink writing into st under the given run prefix
// (series become "<run>/<series>"; an empty run writes series names
// verbatim).
func NewWriter(st *Store, run string) *Writer {
	return &Writer{st: st, run: run, series: make(map[string]*series)}
}

// seriesFor resolves a series once per writer, adding the run prefix.
func (w *Writer) seriesFor(name string) (*series, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if se, ok := w.series[name]; ok {
		return se, nil
	}
	full := name
	if w.run != "" {
		full = w.run + "/" + name
	}
	se, err := w.st.seriesFor(full, true)
	if err != nil {
		return nil, err
	}
	w.series[name] = se
	return se, nil
}

// Append records one sample at a simulation time in seconds.
func (w *Writer) Append(series string, tSeconds float64, valueC float64) error {
	se, err := w.seriesFor(series)
	if err != nil {
		return err
	}
	n, rejected, _ := se.appendRows([]Row{{T: Nanos(tSeconds), V: valueC}})
	w.rows.Add(int64(n))
	return rejected
}

// AppendSeries records one series' samples in time order: values[i] at
// times[i] seconds. The rows reach the store in chunks of at most FlushRows
// through the staging loop AppendRows runs, one series lock per chunk.
func (w *Writer) AppendSeries(series string, times, values []float64) error {
	if len(times) != len(values) {
		return fmt.Errorf("tstore: series %q: %d times, %d values", series, len(times), len(values))
	}
	if len(times) == 0 {
		return nil
	}
	se, err := w.seriesFor(series)
	if err != nil {
		return err
	}
	bp := rowBufs.Get().(*[]Row)
	defer rowBufs.Put(bp)
	chunk := w.st.opts.FlushRows
	for off := 0; off < len(times); off += chunk {
		end := min(off+chunk, len(times))
		rows := (*bp)[:0]
		for i := off; i < end; i++ {
			rows = append(rows, Row{T: Nanos(times[i]), V: values[i]})
		}
		*bp = rows
		n, rejected, _ := se.appendRows(rows)
		w.rows.Add(int64(n))
		if rejected != nil {
			return rejected
		}
	}
	return nil
}

// Rows reports how many samples this writer has accepted.
func (w *Writer) Rows() int64 { return w.rows.Load() }

// Flush makes this writer's rows durable: it flushes the series the writer
// appended to, not the whole store, attempting each even when one fails,
// and returns the first error. A series it empties releases its staging
// buffer.
func (w *Writer) Flush() error {
	w.mu.Lock()
	ses := make([]*series, 0, len(w.series))
	for _, se := range w.series {
		ses = append(ses, se)
	}
	w.mu.Unlock()
	sortByName(ses)
	return flushEach(ses)
}

// ValidRunName reports whether name is usable as a run prefix: non-empty,
// at most 128 bytes, drawn from [A-Za-z0-9._/-] with no empty path
// elements. The service and CLI validate user-supplied run names through
// this single gate before touching the store.
func ValidRunName(name string) error {
	if name == "" {
		return fmt.Errorf("tstore: empty run name")
	}
	if len(name) > 128 {
		return fmt.Errorf("tstore: run name %d bytes exceeds 128", len(name))
	}
	prevSlash := true // leading slash is an empty element too
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			prevSlash = false
		case c == '/':
			if prevSlash {
				return fmt.Errorf("tstore: run name %q has an empty path element", name)
			}
			prevSlash = true
		default:
			return fmt.Errorf("tstore: run name %q has invalid byte %q", name, c)
		}
	}
	if prevSlash {
		return fmt.Errorf("tstore: run name %q has an empty path element", name)
	}
	return nil
}
