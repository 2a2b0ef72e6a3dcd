// Package faultfs is a fault-injecting filesystem shim for the telemetry
// store's chaos suite (DESIGN.md §12). It wraps any tstore.FS and injects
// errors, short writes and latency per operation with configured
// probabilities, driven by one seeded random stream. A run replays exactly
// only when its calls arrive in a fixed order (one goroutine); concurrent
// callers interleave their draws, so they replay the fault rates, not the
// sequence. Disk-full episodes can be toggled at runtime to model an
// outage that begins and ends while writers are live. Every injection is
// counted per (op, mode), so tests can reconcile observed failures against
// what the shim actually injected.
package faultfs

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tstore"
)

// Op names one filesystem operation class for rule matching.
type Op string

const (
	OpMkdirAll Op = "mkdirall"
	OpReadDir  Op = "readdir"
	OpReadFile Op = "readfile"
	OpOpen     Op = "open"
	OpRemove   Op = "remove"
	OpWrite    Op = "write"   // File.Write (sequential appends, e.g. headers)
	OpWriteAt  Op = "writeat" // File.WriteAt (segment flushes)
	OpReadAt   Op = "readat"  // File.ReadAt (query-path segment reads)
	OpTruncate Op = "truncate"
	OpClose    Op = "close"
)

// Mode selects what an injected fault does.
type Mode int

const (
	// ModeError fails the operation with the rule's error without touching
	// the underlying filesystem.
	ModeError Mode = iota
	// ModeShortWrite performs roughly half the write against the real file,
	// then fails with the rule's error — the torn-tail generator. Only
	// meaningful on OpWrite/OpWriteAt; on other ops it behaves like
	// ModeError.
	ModeShortWrite
	// ModeDelay sleeps for the rule's Delay, then lets the operation
	// proceed normally (slow-disk injection, not a failure).
	ModeDelay
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModeShortWrite:
		return "short-write"
	case ModeDelay:
		return "delay"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ErrInjected is the default injected failure; every error faultfs injects
// wraps it (or ErrDiskFull), so tests can assert fault provenance with
// errors.Is.
var ErrInjected = errors.New("faultfs: injected fault")

// ErrDiskFull is returned by every write while a disk-full episode is
// active (SetDiskFull(true)).
var ErrDiskFull = fmt.Errorf("%w: no space left on device", ErrInjected)

// Rule injects one fault class: operations matching Op trip with
// probability P per call.
type Rule struct {
	Op   Op
	Mode Mode
	// P is the per-call trip probability in [0, 1].
	P float64
	// Err overrides the injected error (default ErrInjected). Ignored by
	// ModeDelay.
	Err error
	// Delay is the sleep for ModeDelay rules.
	Delay time.Duration
}

func (r Rule) err() error {
	if r.Err != nil {
		return r.Err
	}
	return ErrInjected
}

// FS wraps a base filesystem with fault injection. Safe for concurrent use.
type FS struct {
	base tstore.FS

	mu    sync.Mutex // guards rng
	rng   *rand.Rand
	rules []Rule

	diskFull atomic.Bool

	cmu    sync.Mutex
	counts map[string]int64 // "<op>/<mode>" → injections
}

// New wraps base (nil = the real filesystem) with the given rules, drawing
// from one random stream seeded with seed (exact replay needs a fixed call
// order).
func New(base tstore.FS, seed int64, rules ...Rule) *FS {
	if base == nil {
		base = tstore.OSFS()
	}
	for _, r := range rules {
		if r.P < 0 || r.P > 1 {
			panic(fmt.Sprintf("faultfs: rule %s/%s probability %v outside [0,1]", r.Op, r.Mode, r.P))
		}
	}
	return &FS{
		base:   base,
		rng:    rand.New(rand.NewSource(seed)),
		rules:  rules,
		counts: make(map[string]int64),
	}
}

// SetDiskFull starts (true) or ends (false) a disk-full episode: while
// active, every write fails with ErrDiskFull before touching the base
// filesystem.
func (f *FS) SetDiskFull(v bool) { f.diskFull.Store(v) }

// Injections snapshots the per-(op, mode) injection counters, keyed
// "<op>/<mode>".
func (f *FS) Injections() map[string]int64 {
	f.cmu.Lock()
	defer f.cmu.Unlock()
	out := make(map[string]int64, len(f.counts))
	for k, v := range f.counts {
		out[k] = v
	}
	return out
}

// TotalInjections sums every injection counter.
func (f *FS) TotalInjections() int64 {
	f.cmu.Lock()
	defer f.cmu.Unlock()
	var n int64
	for _, v := range f.counts {
		n += v
	}
	return n
}

func (f *FS) count(op Op, mode Mode) {
	f.cmu.Lock()
	f.counts[string(op)+"/"+mode.String()]++
	f.cmu.Unlock()
}

// trip returns the first rule for op that fires this call, if any. One
// rng draw per matching rule keeps the stream deterministic for a fixed
// seed and call sequence.
func (f *FS) trip(op Op) (Rule, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.rules {
		if r.Op != op {
			continue
		}
		if f.rng.Float64() < r.P {
			return r, true
		}
	}
	return Rule{}, false
}

// inject runs the pre-operation injection shared by non-write ops: an error
// rule fails the op, a delay rule sleeps. It reports whether the op should
// fail and with what error.
func (f *FS) inject(op Op) error {
	r, ok := f.trip(op)
	if !ok {
		return nil
	}
	if r.Mode == ModeDelay {
		f.count(op, ModeDelay)
		time.Sleep(r.Delay)
		return nil
	}
	f.count(op, r.Mode)
	return fmt.Errorf("faultfs: %s: %w", op, r.err())
}

func (f *FS) MkdirAll(path string, perm fs.FileMode) error {
	if err := f.inject(OpMkdirAll); err != nil {
		return err
	}
	return f.base.MkdirAll(path, perm)
}

func (f *FS) ReadDir(dir string) ([]fs.DirEntry, error) {
	if err := f.inject(OpReadDir); err != nil {
		return nil, err
	}
	return f.base.ReadDir(dir)
}

func (f *FS) ReadFile(path string) ([]byte, error) {
	if err := f.inject(OpReadFile); err != nil {
		return nil, err
	}
	return f.base.ReadFile(path)
}

func (f *FS) Remove(path string) error {
	if err := f.inject(OpRemove); err != nil {
		return err
	}
	return f.base.Remove(path)
}

func (f *FS) OpenFile(path string, flag int, perm fs.FileMode) (tstore.File, error) {
	if err := f.inject(OpOpen); err != nil {
		return nil, err
	}
	file, err := f.base.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file}, nil
}

// faultFile wraps one open file with the shim's write/read injection.
type faultFile struct {
	fs *FS
	f  tstore.File
}

// writeFault decides the fate of a write of n bytes: proceed (keep == n,
// err == nil), fail outright (keep == 0), or short-write (0 < keep < n).
func (ff *faultFile) writeFault(op Op, n int) (keep int, err error) {
	if ff.fs.diskFull.Load() {
		ff.fs.count(op, ModeError)
		return 0, fmt.Errorf("faultfs: %s: %w", op, ErrDiskFull)
	}
	r, ok := ff.fs.trip(op)
	if !ok {
		return n, nil
	}
	switch r.Mode {
	case ModeDelay:
		ff.fs.count(op, ModeDelay)
		time.Sleep(r.Delay)
		return n, nil
	case ModeShortWrite:
		ff.fs.count(op, ModeShortWrite)
		return n / 2, fmt.Errorf("faultfs: %s short write: %w", op, r.err())
	default:
		ff.fs.count(op, ModeError)
		return 0, fmt.Errorf("faultfs: %s: %w", op, r.err())
	}
}

func (ff *faultFile) Write(p []byte) (int, error) {
	keep, ferr := ff.writeFault(OpWrite, len(p))
	if ferr != nil && keep == 0 {
		return 0, ferr
	}
	n, err := ff.f.Write(p[:keep])
	if err != nil {
		return n, err
	}
	return n, ferr
}

func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	keep, ferr := ff.writeFault(OpWriteAt, len(p))
	if ferr != nil && keep == 0 {
		return 0, ferr
	}
	n, err := ff.f.WriteAt(p[:keep], off)
	if err != nil {
		return n, err
	}
	return n, ferr
}

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err := ff.fs.inject(OpReadAt); err != nil {
		return 0, err
	}
	return ff.f.ReadAt(p, off)
}

func (ff *faultFile) Truncate(size int64) error {
	if err := ff.fs.inject(OpTruncate); err != nil {
		return err
	}
	return ff.f.Truncate(size)
}

func (ff *faultFile) Close() error {
	if err := ff.fs.inject(OpClose); err != nil {
		// The underlying file still closes so chaos runs never leak
		// descriptors; the injected error models fsync-at-close failures.
		_ = ff.f.Close()
		return err
	}
	return ff.f.Close()
}
