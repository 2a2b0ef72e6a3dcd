package tstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
)

// Segment wire format (all integers little-endian):
//
//	magic   "TSG1"                                   4 bytes
//	plen    uint32    payload length in bytes        4 bytes
//	payload uvarint(count) + timestamp/value bitstream
//	footer  tMin int64, tMax int64                  16 bytes
//	        vMin, vMax float64                      16 bytes
//	        count uint32                             4 bytes
//	        crc32c uint32 over everything above      4 bytes
//
// The payload bitstream interleaves nothing: all metadata lives in the
// leading varint and the footer. Timestamps are delta-of-delta coded
// (Gorilla-style variable-width classes), values are XOR coded against the
// previous value with a reusable leading/trailing-zero window. Rows within a
// segment are non-decreasing in time; the decoder enforces that, plus the
// footer cross-checks, so a segment that decodes cleanly is also internally
// consistent.

const (
	segMagic     = "TSG1"
	segHeaderLen = 8
	segFooterLen = 40
	// maxSegmentPayload bounds a single segment's payload so a corrupted
	// length field can never drive a multi-gigabyte allocation. Flushes chunk
	// at flushRows, far below this.
	maxSegmentPayload = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segMeta is the decoded footer of one segment plus its location in the
// series file. The t-range and value-range let queries skip segments without
// decoding them.
type segMeta struct {
	off   int64 // file offset of the segment magic
	size  int64 // total on-disk bytes (header + payload + footer)
	count int
	tMin  int64
	tMax  int64
	vMin  float64
	vMax  float64
}

// appendSegment encodes rows as one complete segment and appends it to dst.
// rows must be non-empty, time-sorted (non-decreasing) and finite-valued;
// Append enforces all three before staging.
func appendSegment(dst []byte, rows []Row) []byte {
	start := len(dst)
	dst = append(dst, segMagic...)
	dst = append(dst, 0, 0, 0, 0) // payload length backpatched below

	payloadStart := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	w := bitWriter{b: dst}

	// Timestamps: first raw, then delta-of-delta in four width classes.
	w.writeBits(uint64(rows[0].T), 64)
	prevDelta := int64(0)
	for i := 1; i < len(rows); i++ {
		d := rows[i].T - rows[i-1].T
		dod := d - prevDelta
		prevDelta = d
		switch {
		case dod == 0:
			w.writeBit(0)
		case dod >= -64 && dod <= 63:
			w.writeBits(0b10<<7|uint64(dod+64), 2+7)
		case dod >= -2048 && dod <= 2047:
			w.writeBits(0b110<<12|uint64(dod+2048), 3+12)
		case dod >= -(1<<19) && dod <= (1<<19)-1:
			w.writeBits(0b1110<<20|uint64(dod+(1<<19)), 4+20)
		default:
			w.writeBits(0b1111, 4)
			w.writeBits(uint64(dod), 64)
		}
	}

	// Values: first raw, then XOR against the previous value. A '10' prefix
	// reuses the previous leading/trailing window; '11' installs a new one
	// (5-bit leading count capped at 31, 6-bit significant-bit count).
	vMin, vMax := rows[0].V, rows[0].V
	w.writeBits(math.Float64bits(rows[0].V), 64)
	prevBits := math.Float64bits(rows[0].V)
	prevLead, prevTrail := -1, -1 // no window yet
	for i := 1; i < len(rows); i++ {
		v := rows[i].V
		if v < vMin {
			vMin = v
		}
		if v > vMax {
			vMax = v
		}
		cur := math.Float64bits(v)
		xor := cur ^ prevBits
		prevBits = cur
		if xor == 0 {
			w.writeBit(0)
			continue
		}
		lead := bits.LeadingZeros64(xor)
		if lead > 31 {
			lead = 31
		}
		trail := bits.TrailingZeros64(xor)
		if prevLead >= 0 && lead >= prevLead && trail >= prevTrail {
			w.writeBits(0b10, 2)
			w.writeBits(xor>>prevTrail, uint(64-prevLead-prevTrail))
			continue
		}
		sig := 64 - lead - trail
		w.writeBits(0b11<<11|uint64(lead)<<6|uint64(sig-1), 2+5+6)
		w.writeBits(xor>>trail, uint(sig))
		prevLead, prevTrail = lead, trail
	}
	dst = w.flush()
	binary.LittleEndian.PutUint32(dst[start+4:], uint32(len(dst)-payloadStart))

	dst = binary.LittleEndian.AppendUint64(dst, uint64(rows[0].T))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rows[len(rows)-1].T))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(vMin))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(vMax))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rows)))
	crc := crc32.Checksum(dst[start:], castagnoli)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	return dst
}

// corruptf wraps ErrCorrupt with context; errors.Is(err, ErrCorrupt) holds
// for every decode failure the codec can produce.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// decodeSegment parses one segment from the front of b, appending its rows
// to dst. It returns the extended slice, the segment's footer metadata and
// the total bytes consumed. Any structural problem — short buffer, bad
// magic, oversized length, CRC mismatch, truncated bitstream, non-monotonic
// timestamps, footer disagreeing with the decoded rows — yields an error
// wrapping ErrCorrupt and never a panic. Allocation is bounded by the actual
// payload size, not by attacker-controlled counts: the row count is sanity
// checked against the payload length before any rows are materialized.
func decodeSegment(dst []Row, b []byte) ([]Row, segMeta, int, error) {
	if len(b) < segHeaderLen {
		return dst, segMeta{}, 0, corruptf("short header: %d bytes", len(b))
	}
	if string(b[:4]) != segMagic {
		return dst, segMeta{}, 0, corruptf("bad magic %q", b[:4])
	}
	plen := int(binary.LittleEndian.Uint32(b[4:8]))
	if plen > maxSegmentPayload {
		return dst, segMeta{}, 0, corruptf("payload length %d exceeds cap", plen)
	}
	total := segHeaderLen + plen + segFooterLen
	if len(b) < total {
		return dst, segMeta{}, 0, corruptf("segment truncated: need %d bytes, have %d", total, len(b))
	}
	seg := b[:total]
	crcWant := binary.LittleEndian.Uint32(seg[total-4:])
	if crc := crc32.Checksum(seg[:total-4], castagnoli); crc != crcWant {
		return dst, segMeta{}, 0, corruptf("crc mismatch: computed %08x, footer %08x", crc, crcWant)
	}
	footer := seg[total-segFooterLen:]
	m := segMeta{
		size:  int64(total),
		tMin:  int64(binary.LittleEndian.Uint64(footer[0:])),
		tMax:  int64(binary.LittleEndian.Uint64(footer[8:])),
		vMin:  math.Float64frombits(binary.LittleEndian.Uint64(footer[16:])),
		vMax:  math.Float64frombits(binary.LittleEndian.Uint64(footer[24:])),
		count: int(binary.LittleEndian.Uint32(footer[32:])),
	}

	payload := seg[segHeaderLen : segHeaderLen+plen]
	rows, err := decodePayload(dst, payload)
	if err != nil {
		return dst, segMeta{}, 0, err
	}
	got := rows[len(dst):]
	if len(got) != m.count {
		return dst, segMeta{}, 0, corruptf("footer count %d, decoded %d rows", m.count, len(got))
	}
	if got[0].T != m.tMin || got[len(got)-1].T != m.tMax {
		return dst, segMeta{}, 0, corruptf("footer t-range [%d,%d] disagrees with rows [%d,%d]",
			m.tMin, m.tMax, got[0].T, got[len(got)-1].T)
	}
	vMin, vMax := got[0].V, got[0].V
	for _, r := range got[1:] {
		if r.V < vMin {
			vMin = r.V
		}
		if r.V > vMax {
			vMax = r.V
		}
	}
	if math.Float64bits(vMin) != math.Float64bits(m.vMin) || math.Float64bits(vMax) != math.Float64bits(m.vMax) {
		return dst, segMeta{}, 0, corruptf("footer value range [%g,%g] disagrees with rows [%g,%g]",
			m.vMin, m.vMax, vMin, vMax)
	}
	return rows, m, total, nil
}

// decodePayload decodes the varint-count + bitstream body of a segment,
// appending rows to dst. It is the fuzzer's inner target: it must hold the
// no-panic/no-over-allocation contract for arbitrary input on its own,
// without the CRC shield in front of it.
func decodePayload(dst []Row, payload []byte) ([]Row, error) {
	count64, n := binary.Uvarint(payload)
	if n <= 0 {
		return dst, corruptf("bad row count varint")
	}
	if count64 == 0 {
		return dst, corruptf("empty segment")
	}
	// A row costs at least 2 bits (one timestamp control bit, one value
	// control bit), so a payload of p bytes can hold at most 4p rows. This
	// bound caps allocation before the bitstream is trusted at all.
	if count64 > uint64(len(payload))*4 {
		return dst, corruptf("row count %d impossible for %d-byte payload", count64, len(payload))
	}
	count := int(count64)
	r := bitReader{b: payload[n:]}

	base := len(dst)
	if cap(dst)-base < count {
		grown := make([]Row, base, base+count)
		copy(grown, dst)
		dst = grown
	}

	t0, err := r.readBits(64)
	if err != nil {
		return dst[:base], corruptf("timestamp stream: %v", err)
	}
	prevT := int64(t0)
	dst = append(dst, Row{T: prevT})
	prevDelta := int64(0)
	for i := 1; i < count; i++ {
		var dod int64
		c, err := r.readBit()
		if err != nil {
			return dst[:base], corruptf("timestamp stream: %v", err)
		}
		if c == 1 {
			width, bias := uint(0), int64(0)
			for _, cls := range [...]struct {
				width uint
				bias  int64
			}{{7, 64}, {12, 2048}, {20, 1 << 19}} {
				c, err = r.readBit()
				if err != nil {
					return dst[:base], corruptf("timestamp stream: %v", err)
				}
				if c == 0 {
					width, bias = cls.width, cls.bias
					break
				}
			}
			if width == 0 {
				raw, err := r.readBits(64)
				if err != nil {
					return dst[:base], corruptf("timestamp stream: %v", err)
				}
				dod = int64(raw)
			} else {
				raw, err := r.readBits(width)
				if err != nil {
					return dst[:base], corruptf("timestamp stream: %v", err)
				}
				dod = int64(raw) - bias
			}
		}
		d := prevDelta + dod
		if d < 0 {
			return dst[:base], corruptf("row %d: negative time delta %d", i, d)
		}
		t := prevT + d
		if t < prevT {
			return dst[:base], corruptf("row %d: timestamp overflow", i)
		}
		prevT, prevDelta = t, d
		dst = append(dst, Row{T: t})
	}

	v0, err := r.readBits(64)
	if err != nil {
		return dst[:base], corruptf("value stream: %v", err)
	}
	dst[base].V = math.Float64frombits(v0)
	prevBits := v0
	lead, trail := 0, 0
	haveWindow := false
	for i := 1; i < count; i++ {
		c, err := r.readBit()
		if err != nil {
			return dst[:base], corruptf("value stream: %v", err)
		}
		if c == 1 {
			c, err = r.readBit()
			if err != nil {
				return dst[:base], corruptf("value stream: %v", err)
			}
			if c == 1 {
				l, err := r.readBits(5)
				if err != nil {
					return dst[:base], corruptf("value stream: %v", err)
				}
				s, err := r.readBits(6)
				if err != nil {
					return dst[:base], corruptf("value stream: %v", err)
				}
				lead = int(l)
				sig := int(s) + 1
				trail = 64 - lead - sig
				if trail < 0 {
					return dst[:base], corruptf("row %d: value window %d+%d bits exceeds 64", i, lead, sig)
				}
				haveWindow = true
			} else if !haveWindow {
				return dst[:base], corruptf("row %d: window reuse before any window", i)
			}
			sig := uint(64 - lead - trail)
			xor, err := r.readBits(sig)
			if err != nil {
				return dst[:base], corruptf("value stream: %v", err)
			}
			prevBits ^= xor << uint(trail)
		}
		dst[base+i].V = math.Float64frombits(prevBits)
	}
	// Trailing padding must fit inside the final byte: anything longer means
	// the length field and the bitstream disagree.
	if r.remaining() >= 8 {
		return dst[:base], corruptf("%d unread payload bits", r.remaining())
	}
	for _, row := range dst[base:] {
		if math.IsNaN(row.V) || math.IsInf(row.V, 0) {
			return dst[:base], corruptf("non-finite value %v", row.V)
		}
	}
	return dst, nil
}
