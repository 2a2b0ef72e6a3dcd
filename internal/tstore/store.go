// Package tstore is an append-only, time-partitioned telemetry store for
// (series, t, T) temperature rows. Writers stage rows per series and flush
// them into immutable segments — delta-of-delta timestamps, XOR-packed
// float64 values, a CRC32-C + min/max/t-range footer per segment — while
// min/max/sum rollups at fixed granularities are folded row-by-row at flush
// time. Queries serve half-open time ranges either raw or downsampled,
// answering from rollups when the requested granularity matches one exactly
// and recomputing edge or still-staged buckets from raw rows so downsampled
// results are bit-identical to a brute-force pass over the raw stream.
// Opening a store re-verifies every segment CRC and truncates torn tails
// left by a crash, keeping exactly the fully-flushed prefix. See DESIGN.md
// §11 for the wire format and the recovery contract.
package tstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Typed errors. Everything the codec rejects wraps ErrCorrupt; the store's
// own refusals (out-of-order rows, closed store, unknown series) each carry
// their own sentinel so callers can branch without string matching.
var (
	ErrCorrupt       = errors.New("tstore: corrupt segment")
	ErrOutOfOrder    = errors.New("tstore: row older than series tail")
	ErrClosed        = errors.New("tstore: store closed")
	ErrUnknownSeries = errors.New("tstore: unknown series")
	// ErrStagedFull rejects an append whose series has MaxStagedRows rows
	// staged and unflushable (a disk outage keeps failing flushes). The row
	// is dropped — not staged, not counted toward the series tail — and the
	// store's DroppedRows counter records it, so ingestion degrades with a
	// typed, countable error instead of growing the staging buffer without
	// bound.
	ErrStagedFull = errors.New("tstore: staging buffer full")
)

// Row is one telemetry sample: a timestamp in integer nanoseconds and a
// temperature. Nanosecond integers rather than float seconds keep bucket
// arithmetic exact; Nanos/Seconds convert at the boundary.
type Row struct {
	T int64   `json:"t_ns"`
	V float64 `json:"v"`
}

// Nanos converts a simulation time in seconds to the store's integer
// nanosecond timeline. Every producer must convert through this single
// function so persisted timestamps are reproducible bit-for-bit.
func Nanos(seconds float64) int64 {
	return int64(math.Round(seconds * 1e9))
}

// Seconds converts a store timestamp back to float seconds for display.
func Seconds(t int64) float64 {
	return float64(t) / 1e9
}

// Options tunes a store at Open time.
type Options struct {
	// FlushRows is the per-series staging threshold: an Append that fills
	// the buffer to this size triggers a segment flush. Default 4096.
	FlushRows int
	// Granularities lists the rollup bucket widths, in nanoseconds, that
	// flushes maintain. Queries whose downsample interval matches one of
	// these exactly are served from rollups. Default 1ms and 100ms —
	// one and three decades above the finest control interval the
	// scenario engine uses. Must be positive; duplicates are dropped.
	Granularities []int64
	// MaxStagedRows caps the per-series staging buffer: appends beyond it
	// are dropped with ErrStagedFull until a flush drains the buffer. The
	// cap only binds while flushes are failing (a healthy store flushes at
	// FlushRows, far below it). Default 65536; negative disables the cap.
	MaxStagedRows int
	// FS routes every disk operation; nil means the real filesystem.
	// internal/faultfs substitutes an error/latency-injecting FS here.
	FS FS
}

func (o Options) withDefaults() (Options, error) {
	if o.FlushRows == 0 {
		o.FlushRows = 4096
	}
	if o.FlushRows < 0 {
		return o, fmt.Errorf("tstore: FlushRows %d must be positive", o.FlushRows)
	}
	if o.Granularities == nil {
		o.Granularities = []int64{1_000_000, 100_000_000}
	}
	if o.MaxStagedRows == 0 {
		o.MaxStagedRows = 16 * o.FlushRows
		if o.MaxStagedRows < 65536 {
			o.MaxStagedRows = 65536
		}
	}
	if o.MaxStagedRows < 0 {
		o.MaxStagedRows = 0 // uncapped
	}
	if o.MaxStagedRows > 0 && o.MaxStagedRows < o.FlushRows {
		return o, fmt.Errorf("tstore: MaxStagedRows %d below FlushRows %d", o.MaxStagedRows, o.FlushRows)
	}
	if o.FS == nil {
		o.FS = OSFS()
	}
	seen := make(map[int64]bool, len(o.Granularities))
	gs := o.Granularities[:0:0]
	for _, g := range o.Granularities {
		if g <= 0 {
			return o, fmt.Errorf("tstore: granularity %d must be positive", g)
		}
		if !seen[g] {
			seen[g] = true
			gs = append(gs, g)
		}
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i] < gs[j] })
	o.Granularities = gs
	return o, nil
}

// Bucket is one downsampled aggregate over [Start, Start+granularity).
// Sum is folded row-by-row in time order — at flush for rollup buckets, at
// query time for raw buckets — so the same rows always produce the same
// float64 Sum regardless of which path computed it.
type Bucket struct {
	Start int64   `json:"start_ns"`
	Count int64   `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Sum   float64 `json:"sum"`
}

// Mean returns the bucket average.
func (b Bucket) Mean() float64 { return b.Sum / float64(b.Count) }

func (b *Bucket) add(v float64) {
	if b.Count == 0 {
		// Initialize Sum from the row rather than folding into +0: a bucket
		// holding a single -0 row must sum to -0 bit-for-bit, exactly as a
		// naive fold over the raw rows would.
		b.Min, b.Max, b.Sum = v, v, v
	} else {
		if v < b.Min {
			b.Min = v
		}
		if v > b.Max {
			b.Max = v
		}
		b.Sum += v
	}
	b.Count++
}

// rollupLevel is the in-memory flush-time aggregate list for one
// granularity, in ascending Start order. Buckets cover flushed rows only;
// staged rows are aggregated at query time.
type rollupLevel struct {
	g       int64
	buckets []Bucket
}

func (l *rollupLevel) add(t int64, v float64) {
	start := alignDown(t, l.g)
	if n := len(l.buckets); n > 0 && l.buckets[n-1].Start == start {
		l.buckets[n-1].add(v)
		return
	}
	b := Bucket{Start: start}
	b.add(v)
	l.buckets = append(l.buckets, b)
}

// alignDown floors t to a multiple of g, correctly for negative t.
func alignDown(t, g int64) int64 {
	q := t / g
	if t%g != 0 && t < 0 {
		q--
	}
	return q * g
}

// series is the per-name state: the open segment file, the footer index,
// the staging buffer and the rollup levels. A series lock serializes
// append/flush against queries; the file itself is only ever appended to or
// truncated under that lock, and read back via ReadAt, so concurrent
// readers never seek a shared cursor.
type series struct {
	mu      sync.RWMutex
	st      *Store // immutable back-pointer (FS, options, fault counters)
	name    string
	path    string
	f       File  // nil until the first flush creates the file
	size    int64 // durable bytes, including the file header
	segs    []segMeta
	staged  []Row
	lastT   int64
	any     bool // at least one row ever accepted (staged or flushed)
	flushed int64
	rollups []rollupLevel
	closed  bool // set by Store.Close: later staging fails with ErrClosed
}

// Store is an on-disk telemetry store. All methods are safe for concurrent
// use; appends to distinct series proceed in parallel.
type Store struct {
	dir  string
	opts Options

	mu     sync.RWMutex
	series map[string]*series
	paths  map[string]bool
	closed bool

	// Fault accounting, monotonic over the store's lifetime. droppedRows
	// counts ErrStagedFull rejections (rows the store refused to stage);
	// flushErrors counts flush attempts that failed to reach the disk. Both
	// are typed signals the serving layer's degradation ladder keys off.
	droppedRows atomic.Int64
	flushErrors atomic.Int64

	recovery RecoveryStats
}

// RecoveryStats reports what Open found and what it had to discard.
type RecoveryStats struct {
	// Series and Rows count the data that survived verification.
	Series int   `json:"series"`
	Rows   int64 `json:"rows"`
	// TornTails counts files truncated at a corrupt or incomplete final
	// segment; DroppedBytes totals the bytes removed that way.
	TornTails    int   `json:"torn_tails,omitempty"`
	DroppedBytes int64 `json:"dropped_bytes,omitempty"`
	// DroppedFiles counts files whose header never made it to disk intact;
	// nothing after a torn header can be valid in an append-only file, so
	// the whole file is removed.
	DroppedFiles int `json:"dropped_files,omitempty"`
}

// Stats is a point-in-time summary for /v1/stats and the CLI.
type Stats struct {
	Series   int   `json:"series"`
	Rows     int64 `json:"rows"`
	Staged   int64 `json:"staged"`
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	// DroppedRows counts appends rejected with ErrStagedFull; FlushErrors
	// counts flush attempts that failed to reach disk. Both are monotonic:
	// they never reset, so deltas between snapshots are meaningful.
	DroppedRows int64         `json:"dropped_rows,omitempty"`
	FlushErrors int64         `json:"flush_errors,omitempty"`
	Recovery    RecoveryStats `json:"recovery"`
}

// SeriesInfo summarizes one series for listings.
type SeriesInfo struct {
	Name     string `json:"series"`
	Rows     int64  `json:"rows"`
	Segments int    `json:"segments"`
	FirstT   int64  `json:"first_t_ns"`
	LastT    int64  `json:"last_t_ns"`
}

const (
	fileMagic   = "TSTORE1\n"
	maxNameLen  = 512
	fileSuffix  = ".tseg"
	maxFileName = 48 // sanitized prefix budget, before the hash suffix
)

// Open opens (creating if necessary) a store rooted at dir. Every existing
// segment is CRC-verified and decoded to rebuild the rollups; torn tails
// from a crash are truncated away so the store reopens onto exactly the
// fully-flushed prefix.
func Open(dir string, opts Options) (*Store, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tstore: %w", err)
	}
	s := &Store{
		dir:    dir,
		opts:   opts,
		series: make(map[string]*series),
		paths:  make(map[string]bool),
	}
	entries, err := opts.FS.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tstore: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), fileSuffix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if err := s.recoverFile(filepath.Join(dir, name)); err != nil {
			s.closeAll()
			return nil, err
		}
	}
	return s, nil
}

// recoverFile verifies one series file and registers the surviving series.
func (s *Store) recoverFile(path string) error {
	b, err := s.opts.FS.ReadFile(path)
	if err != nil {
		return fmt.Errorf("tstore: %w", err)
	}
	name, headerLen, ok := parseFileHeader(b)
	if !ok {
		// The header is written in one shot before any segment; a torn or
		// foreign header means no row in this file was ever readable.
		if err := s.opts.FS.Remove(path); err != nil {
			return fmt.Errorf("tstore: dropping %s: %w", path, err)
		}
		s.recovery.DroppedFiles++
		s.recovery.DroppedBytes += int64(len(b))
		return nil
	}
	se := &series{st: s, name: name, path: path}
	for _, g := range s.opts.Granularities {
		se.rollups = append(se.rollups, rollupLevel{g: g})
	}
	good := int64(headerLen)
	var rows []Row
	for int(good) < len(b) {
		rows, err = func() ([]Row, error) {
			decoded, m, n, err := decodeSegment(rows[:0], b[good:])
			if err != nil {
				return nil, err
			}
			m.off = good
			se.segs = append(se.segs, m)
			good += int64(n)
			return decoded, nil
		}()
		if err != nil {
			break
		}
		for _, r := range rows {
			for i := range se.rollups {
				se.rollups[i].add(r.T, r.V)
			}
			se.lastT, se.any = r.T, true
			se.flushed++
		}
	}
	f, err := s.opts.FS.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("tstore: %w", err)
	}
	if good < int64(len(b)) {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return fmt.Errorf("tstore: truncating torn tail of %s: %w", path, err)
		}
		s.recovery.TornTails++
		s.recovery.DroppedBytes += int64(len(b)) - good
	}
	se.f = f
	se.size = good
	s.series[name] = se
	s.paths[filepath.Base(path)] = true
	s.recovery.Series++
	s.recovery.Rows += se.flushed
	return nil
}

// parseFileHeader reads the file magic and the varint-prefixed series name.
func parseFileHeader(b []byte) (name string, n int, ok bool) {
	if len(b) < len(fileMagic) || string(b[:len(fileMagic)]) != fileMagic {
		return "", 0, false
	}
	nameLen, vn := binary.Uvarint(b[len(fileMagic):])
	if vn <= 0 || nameLen == 0 || nameLen > maxNameLen {
		return "", 0, false
	}
	start := len(fileMagic) + vn
	if uint64(len(b)-start) < nameLen {
		return "", 0, false
	}
	return string(b[start : start+int(nameLen)]), start + int(nameLen), true
}

func appendFileHeader(dst []byte, name string) []byte {
	dst = append(dst, fileMagic...)
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	return append(dst, name...)
}

// fileFor picks an unused filename for a new series: a sanitized name prefix
// for human greppability plus an FNV-64a hash for uniqueness. The true name
// lives in the file header; collisions on the derived filename are resolved
// by probing, never by trusting the filename.
func (s *Store) fileFor(name string) string {
	var sb strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
		if sb.Len() >= maxFileName {
			break
		}
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	base := fmt.Sprintf("%s-%016x", sb.String(), h.Sum64())
	fn := base + fileSuffix
	for i := 1; s.paths[fn]; i++ {
		fn = fmt.Sprintf("%s-%d%s", base, i, fileSuffix)
	}
	s.paths[fn] = true
	return fn
}

func validSeriesName(name string) error {
	if name == "" {
		return errors.New("tstore: empty series name")
	}
	if len(name) > maxNameLen {
		return fmt.Errorf("tstore: series name %d bytes exceeds %d", len(name), maxNameLen)
	}
	return nil
}

// seriesFor resolves (optionally creating) the series record for name.
func (s *Store) seriesFor(name string, create bool) (*series, error) {
	s.mu.RLock()
	se, ok := s.series[name]
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if ok {
		return se, nil
	}
	if !create {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSeries, name)
	}
	if err := validSeriesName(name); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if se, ok = s.series[name]; ok {
		return se, nil
	}
	se = &series{st: s, name: name, path: filepath.Join(s.dir, s.fileFor(name))}
	for _, g := range s.opts.Granularities {
		se.rollups = append(se.rollups, rollupLevel{g: g})
	}
	s.series[name] = se
	return se, nil
}

// Append stages one row on series name, creating the series on first use.
// Rows must be non-decreasing in time per series and finite-valued; a row
// that fills the staging buffer to FlushRows flushes it synchronously into
// a new segment. A flush error comes back with the row still staged
// (DESIGN.md §12.3): the next flush retries it.
func (s *Store) Append(name string, t int64, v float64) error {
	_, err := s.AppendRows(name, []Row{{T: t, V: v}})
	return err
}

// AppendRows stages rows on series name in order, as that many Append calls
// would: every row is checked and the buffer flushes each time it reaches
// FlushRows, so segments, file bytes and staging match row-by-row appends.
// It stops at the first rejected row, returning the rejection and how many
// rows it staged before it. A failed flush leaves its rows staged; the
// batch keeps staging without retrying it, and the flush error is returned
// when no row was rejected.
func (s *Store) AppendRows(name string, rows []Row) (int, error) {
	if len(rows) == 0 {
		return 0, nil
	}
	se, err := s.seriesFor(name, true)
	if err != nil {
		return 0, err
	}
	n, rejected, flushErr := se.appendRows(rows)
	if rejected != nil {
		return n, rejected
	}
	return n, flushErr
}

// appendRows is the one staging loop behind Append, AppendRows and Writer:
// under one hold of the series lock it stages rows in order, stopping at
// the first rejection, and flushes whenever the buffer reaches FlushRows.
// It returns the rows staged, the rejection that stopped it and the first
// flush error. A failed flush is not retried within the call, so a failing
// disk costs one attempt per call rather than one per row.
func (se *series) appendRows(rows []Row) (n int, rejected, flushErr error) {
	se.mu.Lock()
	defer se.mu.Unlock()
	if se.closed {
		return 0, ErrClosed, nil
	}
	if se.staged == nil {
		se.staged = make([]Row, 0, min(len(rows), se.st.opts.FlushRows))
	}
	for i, r := range rows {
		if err := se.stage(r.T, r.V); err != nil {
			return i, err, flushErr
		}
		if len(se.staged) >= se.st.opts.FlushRows && flushErr == nil {
			flushErr = se.flushLocked()
		}
	}
	return len(rows), nil, flushErr
}

func (se *series) stage(t int64, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("tstore: series %q: non-finite value %v at t=%d", se.name, v, t)
	}
	if se.any && t < se.lastT {
		return fmt.Errorf("%w: series %q: t=%d after t=%d", ErrOutOfOrder, se.name, t, se.lastT)
	}
	if cap := se.st.opts.MaxStagedRows; cap > 0 && len(se.staged) >= cap {
		// The row is rejected, not staged: the series tail does not advance,
		// so a later retry of the same timestamp is still in order.
		se.st.droppedRows.Add(1)
		return fmt.Errorf("%w: series %q: %d rows staged", ErrStagedFull, se.name, len(se.staged))
	}
	se.staged = append(se.staged, Row{T: t, V: v})
	se.lastT, se.any = t, true
	return nil
}

// segBufs recycles flush encode buffers: a flush's bytes are dead once its
// WriteAt returns.
var segBufs = sync.Pool{New: func() any { return new([]byte) }}

// flushLocked encodes the staging buffer into segments of at most FlushRows
// rows each and appends them durably, then folds the flushed rows into the
// rollups. Caller holds se.mu.
func (se *series) flushLocked() error {
	if len(se.staged) == 0 {
		return nil
	}
	if se.f == nil {
		f, err := se.st.opts.FS.OpenFile(se.path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			se.st.flushErrors.Add(1)
			return fmt.Errorf("tstore: %w", err)
		}
		hdr := appendFileHeader(nil, se.name)
		if _, err := f.Write(hdr); err != nil {
			f.Close()
			// Remove the partial file (best effort) so a retry's O_EXCL create
			// can succeed; a file with a torn header is unrecoverable anyway.
			_ = se.st.opts.FS.Remove(se.path)
			se.st.flushErrors.Add(1)
			return fmt.Errorf("tstore: %w", err)
		}
		se.f = f
		se.size = int64(len(hdr))
	}
	bp := segBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	defer func() {
		*bp = buf[:0]
		segBufs.Put(bp)
	}()
	flushRows := se.st.opts.FlushRows
	for off := 0; off < len(se.staged); off += flushRows {
		end := off + flushRows
		if end > len(se.staged) {
			end = len(se.staged)
		}
		chunk := se.staged[off:end]
		segOff := se.size + int64(len(buf))
		segStart := len(buf)
		buf = appendSegment(buf, chunk)
		se.segs = append(se.segs, segMeta{
			off:   segOff,
			size:  int64(len(buf) - segStart),
			count: len(chunk),
			tMin:  chunk[0].T,
			tMax:  chunk[len(chunk)-1].T,
			vMin:  minV(chunk),
			vMax:  maxV(chunk),
		})
	}
	if _, err := se.f.WriteAt(buf, se.size); err != nil {
		// Drop the optimistically-appended metadata: nothing past se.size is
		// trustworthy after a short write, and reopen will truncate it. The
		// staged rows stay staged, so a later flush retries them at the same
		// offset (overwriting any partial bytes this attempt left behind).
		for len(se.segs) > 0 && se.segs[len(se.segs)-1].off >= se.size {
			se.segs = se.segs[:len(se.segs)-1]
		}
		se.st.flushErrors.Add(1)
		return fmt.Errorf("tstore: series %q: %w", se.name, err)
	}
	se.size += int64(len(buf))
	for _, r := range se.staged {
		for i := range se.rollups {
			se.rollups[i].add(r.T, r.V)
		}
	}
	se.flushed += int64(len(se.staged))
	se.staged = se.staged[:0]
	return nil
}

func minV(rows []Row) float64 {
	m := rows[0].V
	for _, r := range rows[1:] {
		if r.V < m {
			m = r.V
		}
	}
	return m
}

func maxV(rows []Row) float64 {
	m := rows[0].V
	for _, r := range rows[1:] {
		if r.V > m {
			m = r.V
		}
	}
	return m
}

// Flush forces every series' staging buffer into segments. Every series is
// attempted even when one fails — a fault on one file must not leave the
// others unflushed — and the first error is returned.
func (s *Store) Flush() error {
	return flushEach(s.snapshotSeries())
}

// flushEach runs an explicit flush on each series in order, attempting all
// of them, and returns the first error.
func flushEach(ses []*series) error {
	var firstErr error
	for _, se := range ses {
		if err := se.flush(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// flush is an explicit flush. Once it empties the staging buffer it also
// releases it, so a finished series holds no staging memory; flushes at
// FlushRows keep the buffer for the rows still to come.
func (se *series) flush() error {
	se.mu.Lock()
	defer se.mu.Unlock()
	if err := se.flushLocked(); err != nil {
		return err
	}
	se.staged = nil
	return nil
}

func (s *Store) snapshotSeries() []*series {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*series, 0, len(s.series))
	for _, se := range s.series {
		out = append(out, se)
	}
	sortByName(out)
	return out
}

// sortByName orders series by name, the fixed order explicit flushes and
// listings run in.
func sortByName(ses []*series) {
	sort.Slice(ses, func(i, j int) bool { return ses[i].name < ses[j].name })
}

// Close flushes all staged rows and closes the underlying files. The store
// rejects further operations with ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	var firstErr error
	for _, se := range s.snapshotSeries() {
		se.mu.Lock()
		se.closed = true
		if err := se.flushLocked(); err != nil && firstErr == nil {
			firstErr = err
		}
		if se.f != nil {
			if err := se.f.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			se.f = nil
		}
		se.mu.Unlock()
	}
	return firstErr
}

func (s *Store) closeAll() {
	for _, se := range s.series {
		if se.f != nil {
			se.f.Close()
		}
	}
}

// SeriesNames lists every known series in lexical order.
func (s *Store) SeriesNames() []string {
	ses := s.snapshotSeries()
	out := make([]string, len(ses))
	for i, se := range ses {
		out[i] = se.name
	}
	return out
}

// Series lists summaries for every known series in lexical order.
func (s *Store) Series() []SeriesInfo {
	ses := s.snapshotSeries()
	out := make([]SeriesInfo, 0, len(ses))
	for _, se := range ses {
		se.mu.RLock()
		info := SeriesInfo{Name: se.name, Segments: len(se.segs), Rows: se.flushed + int64(len(se.staged)), LastT: se.lastT}
		switch {
		case len(se.segs) > 0:
			info.FirstT = se.segs[0].tMin
		case len(se.staged) > 0:
			info.FirstT = se.staged[0].T
		}
		se.mu.RUnlock()
		if info.Rows > 0 {
			out = append(out, info)
		}
	}
	return out
}

// Stats summarizes the store for observability endpoints.
func (s *Store) Stats() Stats {
	st := Stats{
		Recovery:    s.recovery,
		DroppedRows: s.droppedRows.Load(),
		FlushErrors: s.flushErrors.Load(),
	}
	for _, se := range s.snapshotSeries() {
		se.mu.RLock()
		st.Series++
		st.Rows += se.flushed + int64(len(se.staged))
		st.Staged += int64(len(se.staged))
		st.Segments += len(se.segs)
		st.Bytes += se.size
		se.mu.RUnlock()
	}
	return st
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }
