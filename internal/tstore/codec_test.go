package tstore

import (
	"bytes"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// randRows builds a valid time-sorted, finite-valued row batch whose deltas
// exercise every delta-of-delta width class and whose values hit XOR-window
// reuse, window growth and exact repeats.
func randRows(rng *rand.Rand, n int) []Row {
	rows := make([]Row, n)
	t := rng.Int63n(1 << 40)
	v := 300 + rng.Float64()*80
	for i := range rows {
		switch rng.Intn(6) {
		case 0: // repeat timestamp (allowed: non-decreasing)
		case 1:
			t += rng.Int63n(3)
		case 2:
			t += rng.Int63n(1 << 7)
		case 3:
			t += rng.Int63n(1 << 13)
		case 4:
			t += rng.Int63n(1 << 21)
		default:
			t += rng.Int63n(1 << 33)
		}
		switch rng.Intn(5) {
		case 0: // repeat value exactly
		case 1:
			v += (rng.Float64() - 0.5) * 1e-6
		case 2:
			v += (rng.Float64() - 0.5) * 10
		case 3:
			v = -v / 3
		default:
			v = math.Float64frombits(rng.Uint64() &^ (0x7FF << 52)) // small subnormal-ish
		}
		rows[i] = Row{T: t, V: v}
	}
	return rows
}

func TestSegmentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(500)
		rows := randRows(rng, n)
		seg := appendSegment(nil, rows)
		got, m, consumed, err := decodeSegment(nil, seg)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if consumed != len(seg) {
			t.Fatalf("trial %d: consumed %d of %d bytes", trial, consumed, len(seg))
		}
		if m.count != n || m.tMin != rows[0].T || m.tMax != rows[n-1].T {
			t.Fatalf("trial %d: footer meta %+v does not match rows", trial, m)
		}
		if len(got) != n {
			t.Fatalf("trial %d: got %d rows, want %d", trial, len(got), n)
		}
		for i := range rows {
			if got[i].T != rows[i].T || math.Float64bits(got[i].V) != math.Float64bits(rows[i].V) {
				t.Fatalf("trial %d row %d: got %+v want %+v", trial, i, got[i], rows[i])
			}
		}
	}
}

// goldenSegmentRows is the row set behind testdata/segments.golden. Its
// timestamps walk every delta-of-delta class (0, 7, 12, 20 and 64 bits,
// both signs, each class edge, repeated timestamps), and its values take
// both XOR paths: a new window and a reused one, exact repeats, ±0, a
// one-ulp step whose leading-zero count exceeds the 5-bit cap, and
// subnormals.
func goldenSegmentRows() []Row {
	dods := []int64{
		0, 0, 1, -1, 63, -64, 64, -65, 2047, -2048, 2048, -2049,
		1<<19 - 1, -(1 << 19), 1 << 19, -(1<<19 + 1), 1 << 40, -(1 << 40), 0, 0,
	}
	up, negZero := math.Nextafter(300, 400), math.Copysign(0, -1)
	vals := []float64{
		300, 300, 300.0625, 300.125, 300.1875, 300, up, math.Nextafter(up, 400),
		math.Nextafter(math.Nextafter(up, 400), 400), negZero, negZero, 0, 0, 301.5, 5e-324, 1e-310,
		-273.15, 300.5, 300.5, 345.25, 345.25, 344.75, 1e308, -1e308,
	}
	rows := make([]Row, 0, len(vals))
	t, d := int64(1_700_000_000_000_000_000), int64(1<<42)
	for i, v := range vals {
		rows = append(rows, Row{T: t, V: v})
		switch {
		case i < len(dods):
			d += dods[i]
		case i == len(dods):
			d = 0 // a run of equal timestamps
		}
		t += d
	}
	return rows
}

// TestSegmentGoldenBytes pins the encoder's output byte for byte. Round
// trips and the fuzzers accept any encoder that agrees with its own
// decoder; this fixture holds the bytes stores already contain. It was
// written by the byte-at-a-time bit writer that preceded the word writer,
// and must never be regenerated from the encoder under test: a mismatch
// means the segment format changed.
func TestSegmentGoldenBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "segments.golden"))
	if err != nil {
		t.Fatal(err)
	}
	rows := goldenSegmentRows()
	assertGoldenCoverage(t, rows)
	// Three segments back to back, as one flush writes them: the pinned
	// rows, a seeded random batch and a single row.
	got := appendSegment(nil, rows)
	got = appendSegment(got, randRows(rand.New(rand.NewSource(42)), 300))
	got = appendSegment(got, []Row{{T: -5, V: math.Copysign(0, -1)}})
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("encoded %d bytes, fixture %d; first difference at byte %d", len(got), len(want), i)
	}
}

// assertGoldenCoverage checks that rows reach every encoder branch the
// fixture claims to pin, following the format's class rules (DESIGN §11.1).
func assertGoldenCoverage(t *testing.T, rows []Row) {
	t.Helper()
	hit := map[string]bool{}
	prevDelta := int64(0)
	prevBits := math.Float64bits(rows[0].V)
	prevLead, prevTrail := -1, -1
	for i := 1; i < len(rows); i++ {
		d := rows[i].T - rows[i-1].T
		dod := d - prevDelta
		prevDelta = d
		switch {
		case dod == 0:
			hit["dod0"] = true
		case dod >= -64 && dod <= 63:
			hit["dod7"] = true
		case dod >= -2048 && dod <= 2047:
			hit["dod12"] = true
		case dod >= -(1<<19) && dod <= (1<<19)-1:
			hit["dod20"] = true
		default:
			hit["dod64"] = true
		}
		if d == 0 {
			hit["equal-t"] = true
		}
		cur := math.Float64bits(rows[i].V)
		xor := cur ^ prevBits
		prevBits = cur
		if rows[i].V == 0 && math.Signbit(rows[i].V) {
			hit["-0"] = true
		}
		if xor == 0 {
			hit["repeat"] = true
			continue
		}
		lead, trail := bits.LeadingZeros64(xor), bits.TrailingZeros64(xor)
		if lead > 31 {
			hit["lead-capped"] = true
			lead = 31
		}
		if prevLead >= 0 && lead >= prevLead && trail >= prevTrail {
			hit["window-reuse"] = true
			continue
		}
		hit["window-new"] = true
		prevLead, prevTrail = lead, trail
	}
	for _, k := range []string{"dod0", "dod7", "dod12", "dod20", "dod64", "equal-t",
		"repeat", "-0", "lead-capped", "window-reuse", "window-new"} {
		if !hit[k] {
			t.Fatalf("golden rows never hit %s", k)
		}
	}
}

func TestSegmentRoundTripAppendsToDst(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rows := randRows(rng, 64)
	seg := appendSegment(nil, rows)
	prefix := []Row{{T: -1, V: 1}}
	got, _, _, err := decodeSegment(prefix, seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 65 || got[0] != prefix[0] || got[1].T != rows[0].T {
		t.Fatalf("decode did not append after existing dst: %d rows", len(got))
	}
}

func TestSegmentDecodeCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := randRows(rng, 128)
	seg := appendSegment(nil, rows)

	t.Run("every-bit-flip", func(t *testing.T) {
		// Flipping any single bit must either fail the CRC or (for flips in
		// the CRC field itself) fail the comparison — never decode cleanly.
		for i := 0; i < len(seg)*8; i++ {
			mut := append([]byte(nil), seg...)
			mut[i/8] ^= 1 << (i % 8)
			if _, _, _, err := decodeSegment(nil, mut); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("bit flip %d: got %v, want ErrCorrupt", i, err)
			}
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for n := 0; n < len(seg); n++ {
			if _, _, _, err := decodeSegment(nil, seg[:n]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncated to %d: got %v, want ErrCorrupt", n, err)
			}
		}
	})
	t.Run("trailing-garbage-ignored", func(t *testing.T) {
		got, _, consumed, err := decodeSegment(nil, append(append([]byte(nil), seg...), 0xDE, 0xAD))
		if err != nil || consumed != len(seg) || len(got) != len(rows) {
			t.Fatalf("decode with trailing bytes: rows=%d consumed=%d err=%v", len(got), consumed, err)
		}
	})
}

func TestPayloadDecodeRejectsAbsurdCount(t *testing.T) {
	// A tiny payload claiming millions of rows must be rejected before any
	// allocation proportional to the claim.
	payload := []byte{0xFF, 0xFF, 0xFF, 0x7F} // varint ≈ 2^28
	if _, err := decodePayload(nil, payload); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestBitWriterReader(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	type field struct {
		v uint64
		n uint
	}
	for trial := 0; trial < 100; trial++ {
		var fields []field
		var w bitWriter
		for i := 0; i < 200; i++ {
			n := uint(1 + rng.Intn(64))
			v := rng.Uint64()
			if n < 64 {
				v &= (1 << n) - 1
			}
			fields = append(fields, field{v, n})
			w.writeBits(v, n)
		}
		r := bitReader{b: w.flush()}
		for i, f := range fields {
			got, err := r.readBits(f.n)
			if err != nil {
				t.Fatalf("trial %d field %d: %v", trial, i, err)
			}
			if got != f.v {
				t.Fatalf("trial %d field %d: got %x want %x (width %d)", trial, i, got, f.v, f.n)
			}
		}
		if rem := r.remaining(); rem >= 8 {
			t.Fatalf("trial %d: %d bits left over", trial, rem)
		}
		if _, err := r.readBits(uint(r.remaining()) + 1); err == nil {
			t.Fatalf("trial %d: read past end succeeded", trial)
		}
	}
}
