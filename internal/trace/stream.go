package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// RowReader streams power rows one at a time. It is the contract between
// trace sources (files, network bodies, in-memory traces) and the
// trace-driven simulation layer: a transient replay can begin before the
// full trace exists, and memory stays O(one row) for streamed sources.
//
// Names defines the column order, Interval the per-row duration in seconds.
// Next fills dst (length len(Names)) with the next power row and returns
// io.EOF when the trace is exhausted. Implementations validate rows: every
// power is finite and non-negative.
type RowReader interface {
	Names() []string
	Interval() float64
	Next(dst []float64) error
}

// Reader returns a RowReader cursor over the in-memory trace. Each call
// returns an independent cursor positioned at the first row. Replaying a
// trace through its Reader is bit-identical to replaying the same rows
// through a streaming Decoder: both feed the same values at the same step
// size into the same integrator path.
func (p *PowerTrace) Reader() RowReader {
	return &traceCursor{p: p}
}

type traceCursor struct {
	p *PowerTrace
	i int
}

func (c *traceCursor) Names() []string   { return c.p.Names }
func (c *traceCursor) Interval() float64 { return c.p.Interval }
func (c *traceCursor) Next(dst []float64) error {
	if c.i >= len(c.p.Rows) {
		return io.EOF
	}
	if len(dst) != len(c.p.Names) {
		return fmt.Errorf("trace: destination has %d slots, want %d", len(dst), len(c.p.Names))
	}
	copy(dst, c.p.Rows[c.i])
	c.i++
	return nil
}

// Format selects the wire format of a streamed trace.
type Format int

const (
	// FormatAuto sniffs the format from the first data line: '{' starts
	// NDJSON, a comma in the header means CSV, anything else is ptrace.
	FormatAuto Format = iota
	// FormatPTrace is the HotSpot ".ptrace" format: optional "# interval
	// <v> s" comment, a whitespace-separated header of block names, then
	// one whitespace-separated power row per interval.
	FormatPTrace
	// FormatCSV is the same layout with comma-separated fields.
	FormatCSV
	// FormatNDJSON is newline-delimited JSON: a header object
	// {"names":["A","B"],"interval":1e-3} followed by one JSON array of
	// powers per line.
	FormatNDJSON
)

func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatPTrace:
		return "ptrace"
	case FormatCSV:
		return "csv"
	case FormatNDJSON:
		return "ndjson"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// DecoderOptions configure a streaming Decoder.
type DecoderOptions struct {
	// Format selects the wire format (default FormatAuto).
	Format Format
	// DefaultInterval is used when the stream does not carry an interval
	// (no "# interval" comment in ptrace/CSV, no "interval" field in the
	// NDJSON header).
	DefaultInterval float64
	// MaxColumns bounds the header width (default 4096). A streamed source
	// is untrusted input; the bound keeps a hostile header from allocating
	// per-row buffers of arbitrary size.
	MaxColumns int
}

// ndjsonHeader is the first line of an NDJSON trace stream.
type ndjsonHeader struct {
	Names    []string `json:"names"`
	Interval float64  `json:"interval"`
}

// Decoder incrementally decodes a power trace from a stream. It reads the
// header eagerly (so Names and Interval are available immediately) and then
// yields one validated row per Next call. Memory use is O(one row)
// regardless of trace length, and a ptrace or CSV row of short decimals
// decodes in one pass over the scanner's bytes without allocating
// (DESIGN.md §5.2).
type Decoder struct {
	names    []string
	interval float64
	format   Format
	sc       *bufio.Scanner
	line     int
	rows     int
}

// maxLineBytes bounds a single input line (matches the legacy Read limit).
const maxLineBytes = 1 << 20

// NewDecoder reads the stream header and returns a row decoder. It fails on
// an empty stream, a malformed header, duplicate or empty column names, or
// a missing interval.
func NewDecoder(r io.Reader, opt DecoderOptions) (*Decoder, error) {
	maxCols := opt.MaxColumns
	if maxCols <= 0 {
		maxCols = 4096
	}
	d := &Decoder{
		format:   opt.Format,
		interval: opt.DefaultInterval,
		sc:       bufio.NewScanner(r),
	}
	d.sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	for {
		line, err := d.nextLine()
		if err == io.EOF {
			return nil, fmt.Errorf("trace: empty stream (no header)")
		}
		if err != nil {
			return nil, err
		}
		text := string(line)
		if strings.HasPrefix(text, "#") {
			var v float64
			if n, _ := fmt.Sscanf(text, "# interval %g s", &v); n == 1 && isFinitePositive(v) {
				d.interval = v
			}
			continue
		}
		if d.format == FormatAuto {
			d.format = sniffFormat(text)
		}
		var names []string
		switch d.format {
		case FormatNDJSON:
			var hdr ndjsonHeader
			if err := json.Unmarshal([]byte(text), &hdr); err != nil {
				return nil, fmt.Errorf("trace: line %d: NDJSON header: %v", d.line, err)
			}
			names = hdr.Names
			if hdr.Interval != 0 {
				if !isFinitePositive(hdr.Interval) {
					return nil, fmt.Errorf("trace: line %d: invalid interval %g", d.line, hdr.Interval)
				}
				d.interval = hdr.Interval
			}
		case FormatCSV:
			names = splitCSV(text)
		default:
			names = strings.Fields(text)
		}
		if len(names) > maxCols {
			return nil, fmt.Errorf("trace: header has %d columns, limit %d", len(names), maxCols)
		}
		if err := checkNames(names); err != nil {
			return nil, err
		}
		if !isFinitePositive(d.interval) {
			return nil, fmt.Errorf("trace: no interval specified (and no usable default)")
		}
		d.names = names
		return d, nil
	}
}

// Names returns the column (block) names.
func (d *Decoder) Names() []string { return d.names }

// Interval returns the per-row duration in seconds.
func (d *Decoder) Interval() float64 { return d.interval }

// Rows returns the number of rows decoded so far.
func (d *Decoder) Rows() int { return d.rows }

// Next decodes the next power row into dst (length must equal len(Names)).
// It returns io.EOF at end of stream, and a descriptive error for malformed
// rows, non-finite powers (NaN/Inf), or negative powers. A ptrace or CSV row
// whose fields are all short decimals is split and converted in place with
// exact arithmetic and no allocation; any other row goes through the general
// line parser. Either way a value has the bits strconv.ParseFloat gives it,
// and a malformed row gets the same error.
func (d *Decoder) Next(dst []float64) error {
	if len(dst) != len(d.names) {
		return fmt.Errorf("trace: destination has %d slots, want %d", len(dst), len(d.names))
	}
	line, err := d.nextLine()
	if err != nil {
		return err
	}
	// Comment lines between rows are skipped (the writer only emits one up
	// front, but hand-edited traces interleave them).
	for line[0] == '#' {
		if line, err = d.nextLine(); err != nil {
			return err
		}
	}
	switch d.format {
	case FormatNDJSON:
		var row []float64
		if err := json.Unmarshal(line, &row); err != nil {
			return fmt.Errorf("trace: line %d: %v", d.line, err)
		}
		if len(row) != len(d.names) {
			return fmt.Errorf("trace: line %d: row has %d values, want %d", d.line, len(row), len(d.names))
		}
		copy(dst, row)
	default:
		if !parseRow(line, dst, d.format == FormatCSV) {
			if err := d.parseLine(string(line), dst); err != nil {
				return err
			}
		}
	}
	for i, v := range dst {
		if err := checkPower(v, i); err != nil {
			return fmt.Errorf("trace: line %d: %v", d.line, err)
		}
	}
	d.rows++
	return nil
}

// parseLine is the general ptrace/CSV row parser: strings.Fields or splitCSV,
// then strconv.ParseFloat per field. It is the only path for the rows
// parseRow declines: hex floats, Inf/NaN, long mantissas, Unicode spaces
// and malformed rows.
func (d *Decoder) parseLine(text string, dst []float64) error {
	var fields []string
	if d.format == FormatCSV {
		fields = splitCSV(text)
	} else {
		fields = strings.Fields(text)
	}
	if len(fields) != len(d.names) {
		return fmt.Errorf("trace: line %d: row has %d values, want %d", d.line, len(fields), len(d.names))
	}
	for i, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return fmt.Errorf("trace: line %d: %v", d.line, err)
		}
		dst[i] = v
	}
	return nil
}

// parseRow is the one-pass row parser. It splits a trimmed ptrace line at
// runs of spaces and tabs, or a CSV line at commas with optional spaces and
// tabs around them, and converts every field with parseShortDecimal straight
// into dst. It reports false, with dst partly written, unless the line is
// exactly len(dst) such fields; parseLine then decides what the line means.
func parseRow(line []byte, dst []float64, csv bool) bool {
	for n, i := 0, 0; n < len(dst); n++ {
		v, j, ok := parseShortDecimal(line, i)
		if !ok {
			return false
		}
		dst[n] = v
		i = skipBlanks(line, j)
		switch {
		case i == len(line):
			return n+1 == len(dst)
		case csv:
			if line[i] != ',' {
				return false
			}
			i = skipBlanks(line, i+1)
		case i == j:
			return false // the number runs into a byte that is not a separator
		}
	}
	return false // more fields than columns
}

// skipBlanks returns the index of the first byte at or after i that is not a
// space or a tab.
func skipBlanks(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t') {
		i++
	}
	return i
}

// pow10 holds the powers of ten that a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseShortDecimal reads a number of the form [+-]digits[.digits] with an
// optional [eE][+-]digits exponent from b[i:] and returns its value and the
// index just past it. It needs at least one mantissa digit, as
// strconv.ParseFloat does, and at most four exponent digits. It reports ok
// only when the mantissa digits form an integer m ≤ 2^53 and the net power
// of ten e has |e| ≤ 22: then float64(m) and 10^|e| are exact, so the one
// multiply or divide below rounds m·10^e correctly, and a correctly rounded
// value is the one ParseFloat returns (the exact case of Clinger's
// algorithm, which strconv also takes). A leading '-' on a zero gives -0, as
// in ParseFloat.
func parseShortDecimal(b []byte, i int) (v float64, end int, ok bool) {
	neg := false
	if i < len(b) && (b[i] == '+' || b[i] == '-') {
		neg = b[i] == '-'
		i++
	}
	var m uint64
	digits, frac, point := 0, 0, false
mantissa:
	for ; i < len(b); i++ {
		switch c := b[i]; {
		case '0' <= c && c <= '9':
			if m = m*10 + uint64(c-'0'); m > 1<<53 {
				return 0, 0, false
			}
			digits++
			if point {
				frac++
			}
		case c == '.' && !point:
			point = true
		default:
			break mantissa
		}
	}
	if digits == 0 {
		return 0, 0, false
	}
	e := 0
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		start := i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if i-start == 4 {
				return 0, 0, false // longer exponents are left to ParseFloat
			}
			e = e*10 + int(b[i]-'0')
		}
		if i == start {
			return 0, 0, false
		}
		if eneg {
			e = -e
		}
	}
	e -= frac
	v = float64(m)
	if neg {
		v = -v
	}
	switch {
	case 0 <= e && e <= 22:
		v *= pow10[e]
	case -22 <= e && e < 0:
		v /= pow10[-e]
	default:
		return 0, 0, false
	}
	return v, i, true
}

// nextLine returns the next non-blank line with surrounding whitespace
// trimmed, or io.EOF. The bytes are the scanner's and stay valid only until
// the next call.
func (d *Decoder) nextLine() ([]byte, error) {
	for d.sc.Scan() {
		d.line++
		if line := bytes.TrimSpace(d.sc.Bytes()); len(line) > 0 {
			return line, nil
		}
	}
	if err := d.sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("trace: line %d: longer than %d bytes: %w", d.line+1, maxLineBytes, err)
		}
		return nil, err
	}
	return nil, io.EOF
}

// sniffFormat guesses the wire format from the first data line.
func sniffFormat(text string) Format {
	switch {
	case strings.HasPrefix(text, "{") || strings.HasPrefix(text, "["):
		return FormatNDJSON
	case strings.Contains(text, ","):
		return FormatCSV
	default:
		return FormatPTrace
	}
}

// splitCSV splits a comma-separated line and trims surrounding space from
// each field. (Power traces never contain quoted fields, so a full CSV
// parser would only add failure modes.)
func splitCSV(text string) []string {
	parts := strings.Split(text, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// checkNames validates header names: non-empty, no duplicates.
func checkNames(names []string) error {
	if len(names) == 0 {
		return fmt.Errorf("trace: no block names")
	}
	seen := make(map[string]bool, len(names))
	for i, n := range names {
		if n == "" {
			return fmt.Errorf("trace: empty block name at column %d", i)
		}
		if seen[n] {
			return fmt.Errorf("trace: duplicate block name %q", n)
		}
		seen[n] = true
	}
	return nil
}

// checkPower validates one power value: finite and non-negative.
func checkPower(v float64, col int) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("non-finite power %g in column %d", v, col)
	}
	if v < 0 {
		return fmt.Errorf("negative power %g in column %d", v, col)
	}
	return nil
}

func isFinitePositive(v float64) bool {
	return v > 0 && !math.IsInf(v, 0)
}

// DecodeAll drains a stream into an in-memory PowerTrace. It is the
// loaded-trace counterpart of streaming a Decoder row by row; replaying
// either through the simulation layer produces bit-identical results.
func DecodeAll(r io.Reader, opt DecoderOptions) (*PowerTrace, error) {
	d, err := NewDecoder(r, opt)
	if err != nil {
		return nil, err
	}
	tr, err := New(d.Names(), d.Interval())
	if err != nil {
		return nil, err
	}
	row := make([]float64, len(d.Names()))
	for {
		err := d.Next(row)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := tr.Append(row); err != nil {
			return nil, err
		}
	}
	if len(tr.Rows) == 0 {
		return nil, fmt.Errorf("trace: empty input")
	}
	return tr, nil
}
