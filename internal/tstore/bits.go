package tstore

import (
	"encoding/binary"
	"errors"
)

// errShortBits is the internal sentinel for a bitstream that ends before the
// decoder has read everything the header promised. Callers wrap it into
// ErrCorrupt with positional context; it never escapes the package.
var errShortBits = errors.New("bitstream truncated")

// bitWriter appends bits MSB-first onto a byte slice. Bits collect in a
// left-aligned 64-bit accumulator that reaches the slice a whole word at a
// time; flush appends the final partial word, zero-padded to a byte, and
// runs once after the last write. The zero value writes into a fresh
// buffer; wrap an existing slice to continue after byte-aligned content
// (the varint row count precedes the bitstream in a segment payload).
type bitWriter struct {
	b   []byte
	acc uint64 // pending bits, left-aligned
	n   uint   // pending bit count, always < 64
}

func (w *bitWriter) writeBit(bit uint64) { w.writeBits(bit, 1) }

// writeBits emits the low n bits of v, most significant first. n must be at
// most 64; n == 0 is a no-op.
func (w *bitWriter) writeBits(v uint64, n uint) {
	v <<= 64 - n // left-align, dropping the bits above n (all of them when n == 0)
	w.acc |= v >> w.n
	if w.n+n < 64 {
		w.n += n
		return
	}
	w.b = binary.BigEndian.AppendUint64(w.b, w.acc)
	w.acc = v << (64 - w.n) // the bits that did not fit; none when w.n == 0
	w.n += n - 64
}

// flush appends the pending bits, zero-padded to a whole byte, and returns
// the finished slice.
func (w *bitWriter) flush() []byte {
	for ; w.n > 0; w.n -= min(w.n, 8) {
		w.b = append(w.b, byte(w.acc>>56))
		w.acc <<= 8
	}
	return w.b
}

// bitReader consumes bits MSB-first from a byte slice. Every read is bounds
// checked: running off the end returns errShortBits instead of panicking,
// which is what makes the decoder safe on arbitrary fuzzer input.
type bitReader struct {
	b   []byte
	pos uint64 // absolute bit offset
}

func (r *bitReader) remaining() uint64 {
	return uint64(len(r.b))*8 - r.pos
}

func (r *bitReader) readBits(n uint) (uint64, error) {
	if uint64(n) > r.remaining() {
		return 0, errShortBits
	}
	var v uint64
	for n > 0 {
		idx := r.pos >> 3
		off := uint(r.pos & 7)
		avail := 8 - off
		take := avail
		if take > n {
			take = n
		}
		chunk := (uint64(r.b[idx]) >> (avail - take)) & ((1 << take) - 1)
		v = v<<take | chunk
		r.pos += uint64(take)
		n -= take
	}
	return v, nil
}

func (r *bitReader) readBit() (uint64, error) {
	return r.readBits(1)
}
