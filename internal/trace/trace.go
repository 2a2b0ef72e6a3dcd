// Package trace holds per-block power traces: a sequence of power vectors
// sampled at a fixed interval, as consumed by trace-driven thermal
// simulation (the paper's §5 co-simulation inputs). It reads and writes the
// HotSpot ".ptrace" interchange format (a header of block names followed by
// whitespace-separated rows), decodes untrusted ptrace/CSV/NDJSON streams
// incrementally (DESIGN.md §5.2), and provides the synthetic step and
// pulse-train builders used by the paper's controlled experiments
// (Figs. 6, 8, 9).
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// PowerTrace is a fixed-interval per-block power schedule.
type PowerTrace struct {
	// Names are the block names, defining the column order.
	Names []string
	// Interval is the sampling interval in seconds.
	Interval float64
	// Rows holds one power vector (W) per interval.
	Rows [][]float64

	index map[string]int
}

// New creates an empty trace for the given block names and interval.
func New(names []string, interval float64) (*PowerTrace, error) {
	if err := checkNames(names); err != nil {
		return nil, err
	}
	if !isFinitePositive(interval) {
		return nil, fmt.Errorf("trace: invalid interval %g (want finite and positive)", interval)
	}
	idx := make(map[string]int, len(names))
	for i, n := range names {
		idx[n] = i
	}
	cp := make([]string, len(names))
	copy(cp, names)
	return &PowerTrace{Names: cp, Interval: interval, index: idx}, nil
}

// Column returns the column index of the named block, or -1.
func (p *PowerTrace) Column(name string) int {
	if i, ok := p.index[name]; ok {
		return i
	}
	return -1
}

// Append adds a row (copied). The row length must match the name count, and
// every power must be finite and non-negative.
func (p *PowerTrace) Append(row []float64) error {
	if len(row) != len(p.Names) {
		return fmt.Errorf("trace: row has %d values, want %d", len(row), len(p.Names))
	}
	for i, v := range row {
		if err := checkPower(v, i); err != nil {
			return fmt.Errorf("trace: %v", err)
		}
	}
	cp := make([]float64, len(row))
	copy(cp, row)
	p.Rows = append(p.Rows, cp)
	return nil
}

// Duration returns the total trace duration in seconds.
func (p *PowerTrace) Duration() float64 { return float64(len(p.Rows)) * p.Interval }

// Average returns the time-average power per block — the paper uses the
// pulse-train average to warm the die to a steady operating point before
// short-term transient experiments (§4.1.2).
func (p *PowerTrace) Average() []float64 {
	avg := make([]float64, len(p.Names))
	if len(p.Rows) == 0 {
		return avg
	}
	for _, row := range p.Rows {
		for i, v := range row {
			avg[i] += v
		}
	}
	for i := range avg {
		avg[i] /= float64(len(p.Rows))
	}
	return avg
}

// TotalAverage returns the time-average total chip power.
func (p *PowerTrace) TotalAverage() float64 {
	var s float64
	for _, v := range p.Average() {
		s += v
	}
	return s
}

// Scale multiplies every sample by f (in place).
func (p *PowerTrace) Scale(f float64) {
	for _, row := range p.Rows {
		for i := range row {
			row[i] *= f
		}
	}
}

// Repeat returns a new trace with the rows repeated n times.
func (p *PowerTrace) Repeat(n int) *PowerTrace {
	out, _ := New(p.Names, p.Interval)
	for k := 0; k < n; k++ {
		for _, row := range p.Rows {
			_ = out.Append(row)
		}
	}
	return out
}

// Map converts a row into a name→power map.
func (p *PowerTrace) Map(row int) map[string]float64 {
	out := make(map[string]float64, len(p.Names))
	for i, n := range p.Names {
		out[n] = p.Rows[row][i]
	}
	return out
}

// Step builds a constant trace: the named blocks dissipate the given powers
// for the whole duration, everything else zero.
func Step(names []string, power map[string]float64, duration, interval float64) (*PowerTrace, error) {
	tr, err := New(names, interval)
	if err != nil {
		return nil, err
	}
	row := make([]float64, len(names))
	for name, w := range power {
		c := tr.Column(name)
		if c < 0 {
			return nil, fmt.Errorf("trace: unknown block %q", name)
		}
		row[c] = w
	}
	steps := int(duration/interval + 0.5)
	for i := 0; i < steps; i++ {
		if err := tr.Append(row); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// PulseTrain builds the paper's §4.1.2 schedule: the named block dissipates
// watts for onTime, then zero for offTime, repeated `periods` times.
func PulseTrain(names []string, block string, watts, onTime, offTime, interval float64, periods int) (*PowerTrace, error) {
	tr, err := New(names, interval)
	if err != nil {
		return nil, err
	}
	c := tr.Column(block)
	if c < 0 {
		return nil, fmt.Errorf("trace: unknown block %q", block)
	}
	on := make([]float64, len(names))
	on[c] = watts
	off := make([]float64, len(names))
	nOn := int(onTime/interval + 0.5)
	nOff := int(offTime/interval + 0.5)
	for k := 0; k < periods; k++ {
		for i := 0; i < nOn; i++ {
			if err := tr.Append(on); err != nil {
				return nil, err
			}
		}
		for i := 0; i < nOff; i++ {
			if err := tr.Append(off); err != nil {
				return nil, err
			}
		}
	}
	return tr, nil
}

// Switch builds the paper's Fig. 9 schedule: blockA dissipates watts for
// tSwitch seconds, then blockB dissipates watts for the remaining duration.
func Switch(names []string, blockA, blockB string, watts, tSwitch, duration, interval float64) (*PowerTrace, error) {
	tr, err := New(names, interval)
	if err != nil {
		return nil, err
	}
	ca, cb := tr.Column(blockA), tr.Column(blockB)
	if ca < 0 || cb < 0 {
		return nil, fmt.Errorf("trace: unknown block %q or %q", blockA, blockB)
	}
	rowA := make([]float64, len(names))
	rowA[ca] = watts
	rowB := make([]float64, len(names))
	rowB[cb] = watts
	steps := int(duration/interval + 0.5)
	switchStep := int(tSwitch/interval + 0.5)
	for i := 0; i < steps; i++ {
		row := rowA
		if i >= switchStep {
			row = rowB
		}
		if err := tr.Append(row); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// Write emits the trace in HotSpot ".ptrace" format: a header row of names
// followed by one whitespace-separated power row per interval. The interval
// is recorded in a leading comment. Each power is written as the shortest
// decimal that parses back to the same float64, so Write then Read returns
// every value bit for bit.
func (p *PowerTrace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# interval %g s\n", p.Interval)
	fmt.Fprintln(bw, strings.Join(p.Names, "\t"))
	var num []byte
	for _, row := range p.Rows {
		for i, v := range row {
			if i > 0 {
				bw.WriteByte('\t')
			}
			num = strconv.AppendFloat(num[:0], v, 'g', -1, 64)
			bw.Write(num)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// Read parses the ".ptrace" format written by Write. A missing interval
// comment defaults the interval to defaultInterval. It is a convenience
// wrapper over the streaming Decoder (see NewDecoder for incremental
// consumption of the same format).
func Read(r io.Reader, defaultInterval float64) (*PowerTrace, error) {
	return DecodeAll(r, DecoderOptions{Format: FormatPTrace, DefaultInterval: defaultInterval})
}
