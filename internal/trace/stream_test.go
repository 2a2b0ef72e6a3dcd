package trace

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
)

// drain reads every row from a RowReader.
func drain(t *testing.T, rr RowReader) [][]float64 {
	t.Helper()
	var rows [][]float64
	dst := make([]float64, len(rr.Names()))
	for {
		err := rr.Next(dst)
		if err == io.EOF {
			return rows
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		cp := make([]float64, len(dst))
		copy(cp, dst)
		rows = append(rows, cp)
	}
}

func TestDecoderFormatsAgree(t *testing.T) {
	ptrace := "# interval 0.001 s\nA\tB\tC\n1 2 3\n4.5 0 6\n"
	csv := "# interval 0.001 s\nA,B,C\n1, 2, 3\n4.5,0,6\n"
	ndjson := `{"names":["A","B","C"],"interval":0.001}` + "\n[1,2,3]\n[4.5,0,6]\n"
	want := [][]float64{{1, 2, 3}, {4.5, 0, 6}}
	for name, input := range map[string]string{"ptrace": ptrace, "csv": csv, "ndjson": ndjson} {
		d, err := NewDecoder(strings.NewReader(input), DecoderOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := strings.Join(d.Names(), ","); got != "A,B,C" {
			t.Fatalf("%s: names %q", name, got)
		}
		if d.Interval() != 0.001 {
			t.Fatalf("%s: interval %g", name, d.Interval())
		}
		rows := drain(t, d)
		if len(rows) != len(want) {
			t.Fatalf("%s: %d rows", name, len(rows))
		}
		for i := range want {
			for j := range want[i] {
				if rows[i][j] != want[i][j] {
					t.Fatalf("%s: row %d col %d: %g vs %g", name, i, j, rows[i][j], want[i][j])
				}
			}
		}
	}
}

func TestDecoderStreamMatchesCursorBitwise(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	tr, err := PulseTrain(names, "b", 3.7, 15e-3, 85e-3, 1e-3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Every other row carries a full-precision power, so the one stream
	// runs rows through both the one-pass parser and the line parser.
	for i, row := range tr.Rows {
		if i%2 == 1 {
			row[i%len(row)] = 1 / float64(i+2)
		}
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	declined := 0
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n")[2:] {
		if !parseRow([]byte(line), make([]float64, len(names)), false) {
			declined++
		}
	}
	if declined == 0 || declined == len(tr.Rows) {
		t.Fatalf("%d of %d rows declined by the one-pass parser; the test needs both paths", declined, len(tr.Rows))
	}
	d, err := NewDecoder(&buf, DecoderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	streamed := drain(t, d)
	loaded := drain(t, tr.Reader())
	if len(streamed) != len(loaded) {
		t.Fatalf("row count: streamed %d vs loaded %d", len(streamed), len(loaded))
	}
	if d.Interval() != tr.Reader().Interval() {
		t.Fatalf("interval: %g vs %g", d.Interval(), tr.Interval)
	}
	for i := range loaded {
		for j := range loaded[i] {
			if math.Float64bits(streamed[i][j]) != math.Float64bits(loaded[i][j]) {
				t.Fatalf("row %d col %d: streamed %.17g vs loaded %.17g", i, j, streamed[i][j], loaded[i][j])
			}
		}
	}
}

func TestDecoderRejectsMalformedInput(t *testing.T) {
	cases := map[string]string{
		"empty stream":      "",
		"comments only":     "# interval 1 s\n",
		"NaN power":         "a b\nNaN 1\n",
		"Inf power":         "a b\n1 +Inf\n",
		"negative power":    "a b\n1 -2\n",
		"short row":         "a b\n1\n",
		"long row":          "a b\n1 2 3\n",
		"bad number":        "a b\n1 x\n",
		"duplicate names":   "a a\n1 2\n",
		"empty name":        "a,,c\n1,2,3\n",
		"ndjson bad header": `{"names":12}` + "\n",
		"ndjson bad row":    `{"names":["a"],"interval":1}` + "\n{\"x\":1}\n",
		"ndjson nan row":    `{"names":["a"],"interval":1}` + "\n[NaN]\n",
	}
	for label, input := range cases {
		d, err := NewDecoder(strings.NewReader(input), DecoderOptions{DefaultInterval: 1})
		if err != nil {
			continue // header-stage rejection is fine
		}
		dst := make([]float64, len(d.Names()))
		var rowErr error
		for {
			rowErr = d.Next(dst)
			if rowErr != nil {
				break
			}
		}
		if rowErr == io.EOF && d.Rows() > 0 {
			t.Fatalf("%s: accepted malformed input", label)
		}
		if rowErr == io.EOF && d.Rows() == 0 && label != "comments only" && label != "empty stream" {
			t.Fatalf("%s: silently produced no rows", label)
		}
	}
}

func TestDecoderMissingInterval(t *testing.T) {
	if _, err := NewDecoder(strings.NewReader("a b\n1 2\n"), DecoderOptions{}); err == nil {
		t.Fatal("missing interval should fail")
	}
	d, err := NewDecoder(strings.NewReader("a b\n1 2\n"), DecoderOptions{DefaultInterval: 0.25})
	if err != nil || d.Interval() != 0.25 {
		t.Fatalf("default interval: %v %g", err, d.Interval())
	}
}

func TestDecoderColumnBound(t *testing.T) {
	names := make([]string, 0, 10)
	for i := 0; i < 10; i++ {
		names = append(names, string(rune('a'+i)))
	}
	input := strings.Join(names, " ") + "\n"
	if _, err := NewDecoder(strings.NewReader(input), DecoderOptions{DefaultInterval: 1, MaxColumns: 4}); err == nil {
		t.Fatal("column bound not enforced")
	}
}

func TestNewRejectsNonFinite(t *testing.T) {
	if _, err := New([]string{"a"}, nan()); err == nil {
		t.Fatal("NaN interval accepted")
	}
	if _, err := New([]string{"a"}, inf()); err == nil {
		t.Fatal("Inf interval accepted")
	}
	tr, err := New([]string{"a"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Append([]float64{nan()}); err == nil {
		t.Fatal("NaN power accepted")
	}
	if err := tr.Append([]float64{inf()}); err == nil {
		t.Fatal("Inf power accepted")
	}
}

func nan() float64 { return math.NaN() }
func inf() float64 { return math.Inf(1) }
