package tstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// fuzzSeeds returns the hand-picked seed inputs shared by f.Add and the
// checked-in corpus: valid segments of several shapes, plus truncations and
// mutations that sit just past each structural check.
func fuzzSeeds() [][]byte {
	rng := rand.New(rand.NewSource(7))
	var seeds [][]byte
	add := func(b []byte) { seeds = append(seeds, b) }

	one := appendSegment(nil, []Row{{T: 12345, V: 345.25}})
	add(one)
	add(appendSegment(nil, randRows(rng, 100)))
	uniform := make([]Row, 300) // constant dt and value: all-zero control bits
	for i := range uniform {
		uniform[i] = Row{T: int64(i) * 1000, V: 300.5}
	}
	add(appendSegment(nil, uniform))

	add(one[:3])                            // short header
	add(one[:len(one)-5])                   // truncated footer
	add(append([]byte("XXXX"), one[4:]...)) // bad magic
	mutLen := append([]byte(nil), one...)   // absurd payload length
	binary.LittleEndian.PutUint32(mutLen[4:], 1<<30)
	add(mutLen)
	mutCRC := append([]byte(nil), one...) // last-byte CRC damage
	mutCRC[len(mutCRC)-1] ^= 0x01
	add(mutCRC)
	add([]byte{})
	add([]byte("TSG1"))
	return seeds
}

// FuzzSegmentDecode feeds arbitrary bytes to the full segment decoder. The
// contract under fuzz: no panic, allocation bounded by the input size, and
// every failure is a typed ErrCorrupt. Inputs that do decode must round-trip
// through the canonical encoder.
func FuzzSegmentDecode(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, m, consumed, err := decodeSegment(nil, data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error is not ErrCorrupt: %v", err)
			}
			return
		}
		if consumed < segHeaderLen+segFooterLen || consumed > len(data) {
			t.Fatalf("consumed %d of %d", consumed, len(data))
		}
		if len(rows) != m.count || len(rows) == 0 {
			t.Fatalf("decoded %d rows, footer count %d", len(rows), m.count)
		}
		reenc := appendSegment(nil, rows)
		back, _, _, err := decodeSegment(nil, reenc)
		if err != nil {
			t.Fatalf("re-encode of decoded rows fails decode: %v", err)
		}
		for i := range rows {
			if back[i].T != rows[i].T || math.Float64bits(back[i].V) != math.Float64bits(rows[i].V) {
				t.Fatalf("row %d not stable through re-encode: %+v vs %+v", i, rows[i], back[i])
			}
		}
	})
}

// FuzzPayloadDecode targets the inner bitstream decoder directly, without
// the CRC shield in front: it must hold the no-panic / typed-error /
// bounded-allocation contract entirely on its own.
func FuzzPayloadDecode(f *testing.F) {
	for _, s := range fuzzSeeds() {
		if len(s) > segHeaderLen+segFooterLen {
			f.Add(s[segHeaderLen : len(s)-segFooterLen])
		}
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := decodePayload(nil, data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error is not ErrCorrupt: %v", err)
			}
			return
		}
		prev := int64(math.MinInt64)
		for i, r := range rows {
			if r.T < prev {
				t.Fatalf("row %d: decoder let a non-monotonic timestamp through", i)
			}
			prev = r.T
			if math.IsNaN(r.V) || math.IsInf(r.V, 0) {
				t.Fatalf("row %d: decoder let a non-finite value through", i)
			}
		}
	})
}

// FuzzSegmentRoundTrip derives a valid row batch from the fuzzer's bytes,
// encodes it, and demands an exact decode: every timestamp equal, every
// value bit-identical.
func FuzzSegmentRoundTrip(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18})
	f.Add(appendSegment(nil, []Row{{T: 0, V: 1}})) // arbitrary byte soup is fine
	f.Fuzz(func(t *testing.T, data []byte) {
		rows := rowsFromBytes(data)
		if len(rows) == 0 {
			return
		}
		seg := appendSegment(nil, rows)
		got, _, consumed, err := decodeSegment(nil, seg)
		if err != nil {
			t.Fatalf("decode of freshly-encoded segment: %v", err)
		}
		if consumed != len(seg) || len(got) != len(rows) {
			t.Fatalf("consumed %d/%d, rows %d/%d", consumed, len(seg), len(got), len(rows))
		}
		for i := range rows {
			if got[i].T != rows[i].T || math.Float64bits(got[i].V) != math.Float64bits(rows[i].V) {
				t.Fatalf("row %d: got %+v want %+v", i, got[i], rows[i])
			}
		}
	})
}

// rowsFromBytes deterministically shapes arbitrary bytes into a valid batch:
// each row consumes a delta byte and up to eight value bytes, timestamps
// accumulate (non-decreasing, with occasional large jumps), and non-finite
// values are flushed to a finite stand-in.
func rowsFromBytes(data []byte) []Row {
	var rows []Row
	t := int64(0)
	for len(data) > 0 {
		d := int64(data[0])
		data = data[1:]
		if d == 255 && len(data) >= 4 { // occasional huge delta
			d = int64(binary.LittleEndian.Uint32(data))
			data = data[4:]
		}
		t += d
		var vb [8]byte
		n := copy(vb[:], data)
		data = data[n:]
		v := math.Float64frombits(binary.LittleEndian.Uint64(vb[:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = float64(t%1000) * 0.125
		}
		rows = append(rows, Row{T: t, V: v})
		if len(rows) >= 4096 {
			break
		}
	}
	return rows
}

// TestWriteFuzzCorpus regenerates the checked-in corpus under testdata/fuzz
// when TSTORE_WRITE_CORPUS=1 is set; otherwise it verifies the corpus files
// exist, so a clone that lost them fails loudly instead of silently fuzzing
// from nothing.
func TestWriteFuzzCorpus(t *testing.T) {
	targets := map[string][][]byte{
		"FuzzSegmentDecode":    fuzzSeeds(),
		"FuzzPayloadDecode":    fuzzSeeds(),
		"FuzzSegmentRoundTrip": {{0}, {9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 1, 2, 3, 4}},
	}
	if os.Getenv("TSTORE_WRITE_CORPUS") == "" {
		for name := range targets {
			entries, err := os.ReadDir(filepath.Join("testdata", "fuzz", name))
			if err != nil || len(entries) == 0 {
				t.Fatalf("checked-in corpus for %s missing (regenerate with TSTORE_WRITE_CORPUS=1): %v", name, err)
			}
		}
		return
	}
	for name, seeds := range targets {
		dir := filepath.Join("testdata", "fuzz", name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
