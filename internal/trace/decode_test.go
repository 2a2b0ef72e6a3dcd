package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// refResult is what refDecode read from a stream.
type refResult struct {
	ndjson   bool // the stream is NDJSON, which refDecode does not cover
	names    []string
	interval float64
	rows     [][]float64
	err      error // header error (names nil) or the error after rows; nil at a clean end
}

// refDecode is the per-line decoder that runs for every ptrace and CSV row
// the one-pass parser declines, written out on its own as the reference the
// Decoder is held to: each line becomes a string, rows split with
// strings.Fields or splitCSV, and every field goes through
// strconv.ParseFloat and checkPower.
func refDecode(data []byte, opt DecoderOptions) refResult {
	var res refResult
	maxCols := opt.MaxColumns
	if maxCols <= 0 {
		maxCols = 4096
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	lineNo := 0
	next := func() (string, error) {
		for sc.Scan() {
			lineNo++
			if text := strings.TrimSpace(sc.Text()); text != "" {
				return text, nil
			}
		}
		if err := sc.Err(); err != nil {
			return "", fmt.Errorf("trace: line %d: longer than %d bytes: %w", lineNo+1, maxLineBytes, err)
		}
		return "", io.EOF
	}
	format, interval := opt.Format, opt.DefaultInterval
	for {
		text, err := next()
		if err == io.EOF {
			res.err = fmt.Errorf("trace: empty stream (no header)")
			return res
		}
		if err != nil {
			res.err = err
			return res
		}
		if strings.HasPrefix(text, "#") {
			var v float64
			if n, _ := fmt.Sscanf(text, "# interval %g s", &v); n == 1 && isFinitePositive(v) {
				interval = v
			}
			continue
		}
		if format == FormatAuto {
			format = sniffFormat(text)
		}
		if format == FormatNDJSON {
			res.ndjson = true
			return res
		}
		var names []string
		if format == FormatCSV {
			names = splitCSV(text)
		} else {
			names = strings.Fields(text)
		}
		if len(names) > maxCols {
			res.err = fmt.Errorf("trace: header has %d columns, limit %d", len(names), maxCols)
			return res
		}
		if err := checkNames(names); err != nil {
			res.err = err
			return res
		}
		if !isFinitePositive(interval) {
			res.err = fmt.Errorf("trace: no interval specified (and no usable default)")
			return res
		}
		res.names, res.interval = names, interval
		break
	}
	for {
		text, err := next()
		for err == nil && strings.HasPrefix(text, "#") {
			text, err = next()
		}
		if err == io.EOF {
			return res
		}
		if err != nil {
			res.err = err
			return res
		}
		var fields []string
		if format == FormatCSV {
			fields = splitCSV(text)
		} else {
			fields = strings.Fields(text)
		}
		if len(fields) != len(res.names) {
			res.err = fmt.Errorf("trace: line %d: row has %d values, want %d", lineNo, len(fields), len(res.names))
			return res
		}
		row := make([]float64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				res.err = fmt.Errorf("trace: line %d: %v", lineNo, err)
				return res
			}
			row[i] = v
		}
		for i, v := range row {
			if err := checkPower(v, i); err != nil {
				res.err = fmt.Errorf("trace: line %d: %v", lineNo, err)
				return res
			}
		}
		res.rows = append(res.rows, row)
	}
}

// errText renders an error for comparison; nil reads as "<nil>".
func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// matchLineCode decodes data with the Decoder and with refDecode and returns
// an error unless both give the same names and interval, the same rows bit
// for bit and the same error text after the same row. NDJSON streams are
// not compared.
func matchLineCode(data []byte, format Format) error {
	opt := DecoderOptions{Format: format, DefaultInterval: 1e-3}
	ref := refDecode(data, opt)
	if ref.ndjson {
		return nil
	}
	d, err := NewDecoder(bytes.NewReader(data), opt)
	if ref.names == nil {
		if errText(err) != errText(ref.err) {
			return fmt.Errorf("header error %q, line code %q", errText(err), errText(ref.err))
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("header error %q, line code accepted the header", err)
	}
	if got, want := strings.Join(d.Names(), "|"), strings.Join(ref.names, "|"); got != want {
		return fmt.Errorf("names %q, line code %q", got, want)
	}
	if math.Float64bits(d.Interval()) != math.Float64bits(ref.interval) {
		return fmt.Errorf("interval %v, line code %v", d.Interval(), ref.interval)
	}
	row := make([]float64, len(d.Names()))
	for k := 0; ; k++ {
		err := d.Next(row)
		if k == len(ref.rows) {
			want := ref.err
			if want == nil {
				want = io.EOF
			}
			if errText(err) != errText(want) {
				return fmt.Errorf("after %d rows: error %q, line code %q", k, errText(err), errText(want))
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("row %d: error %q, line code accepted %v", k, err, ref.rows[k])
		}
		for i, v := range row {
			if math.Float64bits(v) != math.Float64bits(ref.rows[k][i]) {
				return fmt.Errorf("row %d column %d: %v (%#x), line code %v (%#x)",
					k, i, v, math.Float64bits(v), ref.rows[k][i], math.Float64bits(ref.rows[k][i]))
			}
		}
	}
}

// edgeFields sit at the edges of the one-pass parser's grammar and exactness
// bounds: accepted short decimals, values it must decline for the general
// parser to round or reject, and malformed spellings.
var edgeFields = []string{
	"-0", "+0", "0.", ".5", "1.", "007", "-0.0e5", "3.7E+2", "5e-0", "0.000123",
	"1e22", "1e-22", "1e23", "1e-23", "0.000000000000000000000000001e5",
	"9007199254740992", "9007199254740993", "123456789012345.6",
	"0.30000000000000004", "12345678901234567", "0.14285714285714285",
	"1.7976931348623157e308", "4.9e-324", "1e400", "1e00000000000000000001",
	"1_0", "0x1p-2", "Inf", "+Inf", "nan", "1e", "1e+", "--1", "+-1", ".", "-",
	"1.2.3", "1e5.5", "0.1x", "-1", "-0.5",
	// Fraction digits that a three- or four-digit exponent offsets.
	"0." + strings.Repeat("0", 120) + "1e123", "0." + strings.Repeat("0", 1000) + "1e1003",
}

// edgeStreams have rows whose structure sits at the edges of the one-pass
// field splitter: separators, Unicode spaces, empty or missing fields.
var edgeStreams = []string{
	"a\tb\tc\n1\t2\t3\n4 \t 5\t\t6\n",
	"a b\n1\v2\n",
	"a b\n1\f2\n",
	"a b\n1\r2\n3 4\r\n",
	"a b\n1\u00a02\n",
	"a b\n1 \u00852\n",
	"a b\n1 2\u00a0\n",
	"a b\n1\u00a0 2\n",
	"a b\n1 2\n3 \xff\n",
	"a,b,c\n1,,3\n",
	"a,b\n1,2,\n",
	"a,b\n,1\n",
	"a,b\n1 , 2\n1\t,\t2\n1 ,\t 2\n",
	"a,b\n1\v,2\n",
	"a,b\n1 2,3\n",
	"a b c\n1 2\n",
	"a b\n1 2 3\n",
	"a,b\n1\n",
	"a,b\n1,2,3\n",
	"a b\n1 2\n# comment\n3 4\n\n  \n5 6\n",
	"# interval 3.33e-6 s\na b\n0.125 2.5\n",
	"a\n1,5\n",
	"a,b\n1;2\n",
}

// edgeInputs returns every edge stream plus each edge field in both
// positions of a two-column ptrace row and CSV row.
func edgeInputs() []string {
	in := append([]string(nil), edgeStreams...)
	for _, f := range edgeFields {
		in = append(in, "a b\n"+f+" 0.5\n0.25 "+f+"\n", "a,b\n"+f+",0.5\n0.25, "+f+"\n")
	}
	return in
}

// randomField draws a field: mostly numbers the one-pass parser takes or
// must decline, sometimes an edge spelling.
func randomField(rng *rand.Rand) string {
	x := rng.Float64() * math.Pow(10, float64(rng.Intn(9)-4))
	switch rng.Intn(7) {
	case 0:
		return strconv.FormatFloat(math.Round(x*1000)/1000, 'g', -1, 64)
	case 1:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case 2:
		return strconv.FormatFloat(x, 'e', rng.Intn(18), 64)
	case 3:
		return strconv.FormatFloat(x, 'f', rng.Intn(25), 64)
	case 4:
		return fmt.Sprintf("%de%d", rng.Intn(1000000), rng.Intn(61)-30)
	case 5:
		digits := make([]byte, 1+rng.Intn(20))
		for i := range digits {
			digits[i] = byte('0' + rng.Intn(10))
		}
		if p := rng.Intn(len(digits) + 1); p < len(digits) {
			return string(digits[:p]) + "." + string(digits[p:])
		}
		return string(digits)
	default:
		return edgeFields[rng.Intn(len(edgeFields))]
	}
}

// randomStream draws a 1-5 column ptrace or CSV stream whose rows mix the
// random fields, vary their separators and sometimes have the wrong width.
func randomStream(rng *rand.Rand) string {
	cols := 1 + rng.Intn(5)
	csv := rng.Intn(2) == 0
	var sb strings.Builder
	for c := 0; c < cols; c++ {
		if c > 0 {
			if csv {
				sb.WriteByte(',')
			} else {
				sb.WriteByte(' ')
			}
		}
		fmt.Fprintf(&sb, "c%d", c)
	}
	sb.WriteByte('\n')
	seps := []string{" ", "\t", "  ", " \t "}
	if csv {
		seps = []string{",", ", ", " ,", "\t,\t"}
	}
	for r := 0; r < 1+rng.Intn(8); r++ {
		n := cols
		if rng.Intn(10) == 0 {
			n += rng.Intn(3) - 1
		}
		for c := 0; c < n; c++ {
			if c > 0 {
				if rng.Intn(40) == 0 {
					sb.WriteString("\u00a0")
				} else {
					sb.WriteString(seps[rng.Intn(len(seps))])
				}
			}
			sb.WriteString(randomField(rng))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestDecoderMatchesLineCode holds the Decoder to the per-line reference on
// the edge-case table and on seeded random streams, in every format mode
// the reference covers.
func TestDecoderMatchesLineCode(t *testing.T) {
	inputs := edgeInputs()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		inputs = append(inputs, randomStream(rng))
	}
	for _, in := range inputs {
		for _, format := range []Format{FormatAuto, FormatPTrace, FormatCSV} {
			if err := matchLineCode([]byte(in), format); err != nil {
				t.Errorf("format %v, input %q: %v", format, in, err)
			}
		}
	}
}

// TestDecoderLineTooLong: a line over the scanner's cap fails with its line
// number, and the scanner's error stays matchable.
func TestDecoderLineTooLong(t *testing.T) {
	long := strings.Repeat("1", maxLineBytes+1)
	_, err := NewDecoder(strings.NewReader("# interval 1 s\n"+long+"\n"), DecoderOptions{})
	if want := "trace: line 2: longer than 1048576 bytes: bufio.Scanner: token too long"; errText(err) != want || !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("over-long header: %v, want %q wrapping bufio.ErrTooLong", err, want)
	}
	d, err := NewDecoder(strings.NewReader("a b\n1 2\n"+long+"\n"), DecoderOptions{DefaultInterval: 1})
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, 2)
	if err := d.Next(row); err != nil {
		t.Fatal(err)
	}
	err = d.Next(row)
	if want := "trace: line 3: longer than 1048576 bytes: bufio.Scanner: token too long"; errText(err) != want || !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("over-long row: %v, want %q wrapping bufio.ErrTooLong", err, want)
	}
}

// persistStyleBody writes a ptrace the way the persist-query benchmark
// workload writes its traces: an interval comment, a header of 18 names,
// then per-row noise around a per-column base power, rounded to 3 decimals,
// formatted with strconv 'g', -1 and joined with sep.
func persistStyleBody(rows int, sep string) []byte {
	const cols = 18
	rng := rand.New(rand.NewSource(1))
	var buf bytes.Buffer
	buf.WriteString("# interval 3.33e-06 s\n")
	base := make([]float64, cols)
	for c := range base {
		if c > 0 {
			buf.WriteString(sep)
		}
		fmt.Fprintf(&buf, "B%d", c)
		base[c] = 0.3 + 2.7*rng.Float64()
	}
	buf.WriteByte('\n')
	for k := 0; k < rows; k++ {
		for c := range base {
			if c > 0 {
				buf.WriteString(sep)
			}
			v := math.Round(base[c]*(0.7+0.6*rng.Float64())*1000) / 1000
			buf.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestDecoderFastPathShare: every row of a persist-query style ptrace takes
// the one-pass parser, and it reads the values strconv.ParseFloat reads.
func TestDecoderFastPathShare(t *testing.T) {
	body := persistStyleBody(5000, "\t")
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")[2:]
	dst := make([]float64, 18)
	taken := 0
	for k, line := range lines {
		if !parseRow([]byte(line), dst, false) {
			t.Errorf("row %d declined: %q", k, line)
			continue
		}
		taken++
		for i, f := range strings.Fields(line) {
			if want, _ := strconv.ParseFloat(f, 64); math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("row %d column %d: %v, ParseFloat %v", k, i, dst[i], want)
			}
		}
	}
	t.Logf("one-pass share: %d of %d rows", taken, len(lines))
}

// TestDecoderNextAllocationFree: decoding a ptrace or CSV row of short
// decimals allocates nothing.
func TestDecoderNextAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		format Format
		sep    string
	}{{FormatPTrace, "\t"}, {FormatCSV, ", "}} {
		d, err := NewDecoder(bytes.NewReader(persistStyleBody(500, tc.sep)), DecoderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if d.format != tc.format {
			t.Fatalf("sniffed %v, want %v", d.format, tc.format)
		}
		row := make([]float64, len(d.Names()))
		allocs := testing.AllocsPerRun(200, func() {
			if err := d.Next(row); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%v: %v allocations per Next, want 0", tc.format, allocs)
		}
	}
}

// BenchmarkTraceDecode streams a 30 000-row, 18-column ptrace built like the
// persist-query workload's through one Decoder per op, one Next per row into
// one buffer, and reports ns/row.
func BenchmarkTraceDecode(b *testing.B) {
	const rows = 30000
	body := persistStyleBody(rows, "\t")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := NewDecoder(bytes.NewReader(body), DecoderOptions{})
		if err != nil {
			b.Fatal(err)
		}
		row := make([]float64, len(d.Names()))
		n := 0
		for ; ; n++ {
			if err = d.Next(row); err != nil {
				break
			}
		}
		if err != io.EOF || n != rows {
			b.Fatalf("decoded %d rows, stopped on %v", n, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}
