package hotspot

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/materials"
	"repro/internal/rcnet"
	"repro/internal/trace"
)

// Session is a per-goroutine simulation context over one compiled Model:
// its own solve workspace and a memo of the last steady power map it
// solved. Any number of Sessions may run concurrently against the same
// Model; one Session must not be shared between goroutines. Long-lived
// services pool Sessions per cached model so repeated steady solves reuse
// the grown workspace (replays share the model's per-interval factor cache
// either way).
type Session struct {
	m  *Model
	rs *rcnet.Session
}

// NewSession creates an independent simulation context. Safe to call
// concurrently.
func (m *Model) NewSession() *Session {
	return &Session{m: m, rs: m.solver.NewSession()}
}

// Model returns the model this session runs against.
func (s *Session) Model() *Model { return s.m }

// SteadyState solves the equilibrium temperatures for a node-power vector
// (from PowerVector/BlockPowerVector); a repeat of the session's previous
// power map is answered from its memo. Results match Model.SteadyState.
func (s *Session) SteadyState(power []float64) *Result {
	return s.m.NewResult(s.rs.SteadyState(power))
}

// TraceColumns maps trace column names onto floorplan block indices: the
// returned slice has one entry per trace column, -1 where the column names
// no block (such columns are ignored during replay).
func (m *Model) TraceColumns(names []string) []int {
	cols := make([]int, len(names))
	fp := m.cfg.Floorplan
	for i, n := range names {
		cols[i] = fp.Index(n)
	}
	return cols
}

// CheckTraceNames verifies that every trace column names a floorplan block.
// Replay itself tolerates unknown columns (they are ignored); strict callers
// — the simulation service — reject them up front with this check.
func (m *Model) CheckTraceNames(names []string) error {
	fp := m.cfg.Floorplan
	for _, n := range names {
		if fp.Index(n) < 0 {
			return fmt.Errorf("hotspot: trace column %q names no floorplan block", n)
		}
	}
	return nil
}

// ReplayRows drives the model with rows streamed from a RowReader: each row
// is one backward-Euler step of the reader's interval, and the temperature
// state is recorded after every step (plus the initial state). Replay
// starts as soon as the first row is available and holds only one row in
// memory, so a transient can proceed while its trace is still arriving over
// a network stream. Replaying an in-memory trace (PowerTrace.Reader) and
// streaming the same rows (trace.NewDecoder) produce bit-identical results.
// The replay runs on the calling goroutine.
//
// temps (length = node count) is advanced in place. An empty trace (no
// rows) is an error.
func (s *Session) ReplayRows(temps []float64, rows trace.RowReader) ([]TracePoint, error) {
	pts, errs := replayPoints([]replayJob{rowJob(s.m, temps, rows)}, 1)
	return pts[0], errs[0]
}

// ReplayJob describes one independent streamed replay for
// ReplayBatchResults.
type ReplayJob struct {
	Model *Model
	// Temps is the initial state (advanced in place); nil starts from
	// ambient.
	Temps []float64
	Rows  trace.RowReader
}

// ReplayBatchResults replays row-streamed jobs across a worker pool
// (workers ≤ 0 = GOMAXPROCS) and reports per-job outcomes: results and
// errors are both indexed like jobs, so callers serving independent
// scenarios can attribute each failure to its own job.
//
// Same-model same-interval jobs advance in lockstep — one row pulled from
// each live reader per step, then one batched solve for all of them — so
// they pay one factor traversal per step instead of one per job. Per-job
// results are bit-identical to Session.ReplayRows at any worker count.
// Shorter traces simply drop out of their group at EOF.
//
// Lockstep polling means each reader must be able to produce its next row
// without another reader in the batch being drained first. Independent
// sources (in-memory traces, separate files or connections — every caller
// in this repository) satisfy that trivially; slices of one sequential
// stream would not, and must be replayed one job per batch.
func ReplayBatchResults(jobs []ReplayJob, workers int) ([][]TracePoint, []error) {
	return replayPoints(rowJobs(jobs), workers)
}

// ReplayFinalPeak replays row-streamed jobs exactly as ReplayBatchResults
// does but keeps, per job, only what a sweep answers with: the block
// temperatures (°C, floorplan order) after the last row, and each block's
// maximum over the replay from t = 0. Results and errors are indexed like
// jobs; a failed job has nil vectors and the error ReplayBatchResults
// reports for it. final and peak equal the last point and the per-block
// maximum of ReplayBatchResults' points bit for bit, without holding a
// vector per step.
func ReplayFinalPeak(jobs []ReplayJob, workers int) (final, peak [][]float64, errs []error) {
	rj := rowJobs(jobs)
	recs := make([]peakRecorder, len(rj))
	for j := range rj {
		recs[j].m = rj[j].m
		rj[j].record = recs[j].record
	}
	errs = replay(rj, workers)
	final = make([][]float64, len(jobs))
	peak = make([][]float64, len(jobs))
	for j, err := range errs {
		if err != nil {
			continue
		}
		// The state is advanced in place, so it ends as the last step left
		// it: the last point's temperatures.
		m := rj[j].m
		final[j] = make([]float64, len(m.blockNode))
		m.BlocksCInto(rj[j].temps, final[j])
		peak[j] = recs[j].peak
		for i, k := range peak[j] {
			peak[j][i] = materials.KToC(k)
		}
	}
	return final, peak, errs
}

// peakRecorder keeps a replay's running per-block maximum in Kelvin, in one
// buffer. The °C conversion is monotonic, so converting the maximum once
// gives the maximum of the converted temperatures bit for bit.
type peakRecorder struct {
	m    *Model
	peak []float64
}

func (r *peakRecorder) record(_ float64, temp []float64) {
	if r.peak == nil {
		r.peak = make([]float64, len(r.m.blockNode))
		for i, node := range r.m.blockNode {
			r.peak[i] = temp[node]
		}
		return
	}
	for i, node := range r.m.blockNode {
		if v := temp[node]; v > r.peak[i] {
			r.peak[i] = v
		}
	}
}

// rowJobs adapts ReplayJobs to the stepping core.
func rowJobs(jobs []ReplayJob) []replayJob {
	rj := make([]replayJob, len(jobs))
	for j, job := range jobs {
		rj[j] = rowJob(job.Model, job.Temps, job.Rows)
	}
	return rj
}

// errEmptyTrace fails a streamed replay whose reader has no rows.
var errEmptyTrace = errors.New("hotspot: empty trace: no power rows")

// rowJob adapts a streamed trace to the stepping core: the reader's
// interval as the step, and a power fill that pulls one row per step.
func rowJob(m *Model, temps []float64, rows trace.RowReader) replayJob {
	switch {
	case m == nil:
		return replayJob{err: errors.New("nil model")}
	case rows == nil:
		return replayJob{err: errors.New("nil row source")}
	}
	if temps == nil {
		temps = m.AmbientState()
	}
	src := &rowSource{m: m, rows: rows}
	return replayJob{
		m:     m,
		step:  rows.Interval(),
		temps: temps,
		fill:  src.fill,
		wrap:  src.wrap,
	}
}

// rowSource expands streamed trace rows onto block nodes.
type rowSource struct {
	m    *Model
	rows trace.RowReader
	cols []int // trace column → block index (-1 = ignored); set by the first fill
	row  []float64
	n    int // 1-based index of the row last requested
}

func (r *rowSource) fill(power []float64) error {
	if r.cols == nil {
		r.cols = r.m.TraceColumns(r.rows.Names())
		r.row = make([]float64, len(r.cols))
	}
	r.n++
	if err := r.rows.Next(r.row); err != nil {
		if err == io.EOF && r.n == 1 {
			return errEmptyTrace
		}
		return err
	}
	clear(power)
	for c, bi := range r.cols {
		if bi >= 0 {
			power[r.m.blockNode[bi]] = r.row[c]
		}
	}
	return nil
}

// wrap names the row a failure happened at.
func (r *rowSource) wrap(err error) error {
	if r.n == 0 || errors.Is(err, errEmptyTrace) {
		return err
	}
	return fmt.Errorf("hotspot: replay row %d: %w", r.n, err)
}
