package trace

import (
	"bytes"
	"io"
	"math"
	"testing"
)

// FuzzDecoder feeds arbitrary bytes through the streaming trace decoder in
// every format mode. The invariants: never panic, any row the decoder
// accepts contains only finite, non-negative powers of the header's width,
// and a ptrace or CSV stream decodes exactly as the per-line reference
// (refDecode) decodes it: the same names, interval and rows bit for bit,
// and the same error text after the same row.
func FuzzDecoder(f *testing.F) {
	for _, in := range edgeInputs() {
		f.Add([]byte(in))
	}
	f.Add([]byte("# interval 0.001 s\nA\tB\n1 2\n3 4\n"))
	f.Add([]byte("A,B,C\n1, 2, 3\n4.5,0,6\n"))
	f.Add([]byte(`{"names":["A","B"],"interval":1e-3}` + "\n[1,2]\n[3,4]\n"))
	f.Add([]byte("A B\nNaN 1\n"))
	f.Add([]byte("A B\n1 +Inf\n"))
	f.Add([]byte("A B\n-1 2\n"))
	f.Add([]byte("# interval -5 s\nA\n1\n"))
	f.Add([]byte("# interval NaN s\nA\n1\n"))
	f.Add([]byte(`{"names":["A"],"interval":1e308}` + "\n[1e308]\n"))
	f.Add([]byte("A A\n1 1\n"))
	f.Add([]byte("\n\n# only comments\n"))
	f.Add([]byte("A\n1\n# trailing comment\n2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, format := range []Format{FormatAuto, FormatPTrace, FormatCSV, FormatNDJSON} {
			if err := matchLineCode(data, format); err != nil {
				t.Fatalf("format %v: %v", format, err)
			}
			d, err := NewDecoder(bytes.NewReader(data), DecoderOptions{Format: format, DefaultInterval: 1e-3})
			if err != nil {
				continue
			}
			if !(d.Interval() > 0) || math.IsInf(d.Interval(), 0) {
				t.Fatalf("format %v: accepted invalid interval %g", format, d.Interval())
			}
			row := make([]float64, len(d.Names()))
			for rows := 0; rows < 10000; rows++ {
				err := d.Next(row)
				if err == io.EOF {
					break
				}
				if err != nil {
					break // rejected row: fine, as long as nothing panicked
				}
				for i, v := range row {
					if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
						t.Fatalf("format %v: accepted invalid power %g in column %d", format, v, i)
					}
				}
			}
		}
	})
}

// FuzzRead drives the legacy whole-file reader (now a Decoder wrapper): it
// must never panic, and on success every stored row is valid.
func FuzzRead(f *testing.F) {
	f.Add([]byte("# interval 3.3e-6 s\nIntReg Dcache\n1.5 0.2\n0 0\n"))
	f.Add([]byte("A\nInf\n"))
	f.Add([]byte("A B\n1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data), 1e-3)
		if err != nil {
			return
		}
		if len(tr.Rows) == 0 {
			t.Fatal("Read returned an empty trace without error")
		}
		for _, row := range tr.Rows {
			if len(row) != len(tr.Names) {
				t.Fatal("ragged row accepted")
			}
			for _, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("invalid power %g accepted", v)
				}
			}
		}
	})
}
