package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tstore"
)

// spanHeader carries the benchmark's request ID. The fleet router forwards
// every non-hop-by-hop header, so one ID names a request's client, router and
// replica spans.
const spanHeader = "X-Bench-Span"

// span is one timed interval at a layer boundary. Spans of one request share
// ID; ID 0 marks work no request can be tied to (filesystem calls).
type span struct {
	ID      uint64 `json:"id"`
	Layer   string `json:"layer"`
	Parent  string `json:"parent,omitempty"`
	Class   string `json:"class,omitempty"`
	Key     string `json:"key,omitempty"` // route key, on routed client spans
	Replica int    `json:"replica"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Status  int    `json:"status,omitempty"`
}

func (s span) us() float64 { return float64(s.EndNs-s.StartNs) / 1e3 }

// recorder keeps spans in memory while on; they are written out at exit.
type recorder struct {
	on    atomic.Bool
	ids   atomic.Uint64
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the spans recorded so far.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// handler wraps a layer's HTTP handler with a span per request. parent names
// the layer that calls this one.
func (r *recorder) handler(layer, parent string, replica int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		id, _ := strconv.ParseUint(req.Header.Get(spanHeader), 10, 64)
		start := r.now()
		h.ServeHTTP(w, req)
		r.add(span{ID: id, Layer: layer, Parent: parent, Replica: replica, StartNs: start, EndNs: r.now()})
	})
}

// spanTransport is the client-side span source: it stamps each request with
// a fresh ID and records a span from send to the close of the response body.
type spanTransport struct {
	rec  *recorder
	next http.RoundTripper
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.on.Load() {
		return t.next.RoundTrip(req)
	}
	id := t.rec.ids.Add(1)
	s := span{ID: id, Layer: "client", Replica: -1}
	if c, ok := req.Context().Value(callKey{}).(*call); ok {
		s.Class, s.Key = c.class, c.key
	}
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	s.StartNs = t.rec.now()
	resp, err := t.next.RoundTrip(out)
	if err != nil {
		s.EndNs = t.rec.now()
		t.rec.add(s)
		return nil, err
	}
	s.Status = resp.StatusCode
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		s.EndNs = t.rec.now()
		t.rec.add(s)
	}}
	return resp, nil
}

// spanBody ends the client span when the body is closed, after its last byte.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- the telemetry store's filesystem ---

// tracedFS wraps the store's filesystem: while the recorder is on, each
// operation becomes a "tstore.fs.<op>" span and adds to its op's total time.
type tracedFS struct {
	rec  *recorder
	next tstore.FS
	ns   sync.Map // op name → *atomic.Int64
}

// timed runs f as one operation of the named kind.
func (t *tracedFS) timed(op string, f func()) {
	if !t.rec.on.Load() {
		f()
		return
	}
	start := t.rec.now()
	f()
	end := t.rec.now()
	v, _ := t.ns.LoadOrStore(op, new(atomic.Int64))
	v.(*atomic.Int64).Add(end - start)
	t.rec.add(span{Layer: "tstore.fs." + op, Parent: "service", StartNs: start, EndNs: end})
}

// totalNs snapshots the time spent per operation kind.
func (t *tracedFS) totalNs() map[string]int64 {
	out := map[string]int64{}
	t.ns.Range(func(k, v any) bool {
		out[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	return out
}

func (t *tracedFS) MkdirAll(path string, perm fs.FileMode) (err error) {
	t.timed("mkdir", func() { err = t.next.MkdirAll(path, perm) })
	return err
}

func (t *tracedFS) ReadDir(dir string) (es []fs.DirEntry, err error) {
	t.timed("readdir", func() { es, err = t.next.ReadDir(dir) })
	return es, err
}

func (t *tracedFS) ReadFile(path string) (b []byte, err error) {
	t.timed("read", func() { b, err = t.next.ReadFile(path) })
	return b, err
}

func (t *tracedFS) Remove(path string) (err error) {
	t.timed("remove", func() { err = t.next.Remove(path) })
	return err
}

func (t *tracedFS) OpenFile(path string, flag int, perm fs.FileMode) (tstore.File, error) {
	var f tstore.File
	var err error
	t.timed("open", func() { f, err = t.next.OpenFile(path, flag, perm) })
	if err != nil {
		return nil, err
	}
	return &tracedFile{fs: t, f: f}, nil
}

type tracedFile struct {
	fs *tracedFS
	f  tstore.File
}

func (f *tracedFile) ReadAt(p []byte, off int64) (n int, err error) {
	f.fs.timed("read", func() { n, err = f.f.ReadAt(p, off) })
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (n int, err error) {
	f.fs.timed("write", func() { n, err = f.f.WriteAt(p, off) })
	return n, err
}

func (f *tracedFile) Write(p []byte) (n int, err error) {
	f.fs.timed("write", func() { n, err = f.f.Write(p) })
	return n, err
}

func (f *tracedFile) Truncate(size int64) (err error) {
	f.fs.timed("truncate", func() { err = f.f.Truncate(size) })
	return err
}

func (f *tracedFile) Close() (err error) {
	f.fs.timed("close", func() { err = f.f.Close() })
	return err
}

// --- runtime ---

// runtimeSample is the slice of runtime/metrics the benchmark reports.
type runtimeSample struct {
	gcCycles   uint64
	pauseCPU   float64 // GC pause CPU-seconds (pause wall time × GOMAXPROCS)
	allocBytes uint64
	gomaxprocs uint64
}

var runtimeNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/pause:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/sched/gomaxprocs:threads",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.gcCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.pauseCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[2].Value.Uint64()
	}
	if s[3].Value.Kind() == metrics.KindUint64 {
		out.gomaxprocs = s[3].Value.Uint64()
	}
	return out
}

// sampleRSS samples the process's resident set every 10 ms until stop is
// closed or full, when set, reports true, and sends the highest sample in
// MiB (0 if none could be read) once stop is closed. Unlike the kernel's
// lifetime peak (VmHWM), it leaves out what the set-ups held before the
// phase it samples.
func sampleRSS(stop <-chan struct{}, full func() bool) <-chan float64 {
	out := make(chan float64, 1)
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		peak, sampling := 0.0, true
		for {
			if sampling {
				if mb, err := rssMB(); err == nil && mb > peak {
					peak = mb
				}
				sampling = full == nil || !full()
			}
			select {
			case <-stop:
				out <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

// rssMB reads the process's current resident set in MiB.
func rssMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return 0, err
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20), nil
}
