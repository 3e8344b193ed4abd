// Package wire is the one binary codec behind every payload the
// content-addressed store holds: mined analyses, PE variants and their
// rule sets, evaluation results, graphs and embedding lists, cost models
// and training samples. An Enc writes fields; a Dec reads them back in
// the same order.
//
// The format is a plain concatenation of fields with no tags and no
// version of its own (the store envelope, or the payload's own magic,
// carries that):
//
//   - unsigned integers are uvarints, signed ones zig-zag varints;
//   - a float64 is its IEEE-754 bits, 8 bytes little-endian;
//   - a bool is one byte, 0 or 1;
//   - a string is its uvarint byte length, then the bytes;
//   - a collection length is a plain uvarint count, or, where nil and
//     empty must round-trip distinctly, 0 for nil and n+1 for n elements.
//
// Decoding treats bytes as hostile: a malformed payload is an error,
// never a panic or a huge allocation. The rule that guarantees it lives
// here and only here: a declared count is accepted only if the count
// times the minimum encoded width of one element (1 byte for a varint,
// 8 for a float64) fits in the bytes left, so a decoder never allocates
// more than a small multiple of its input.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Enc is an append-only encoder; Buf holds the bytes written so far (a
// caller may seed it with a prefix such as a magic string).
type Enc struct{ Buf []byte }

func (e *Enc) Uvarint(v uint64) { e.Buf = binary.AppendUvarint(e.Buf, v) }
func (e *Enc) Varint(v int64)   { e.Buf = binary.AppendVarint(e.Buf, v) }
func (e *Enc) Int(v int)        { e.Varint(int64(v)) }
func (e *Enc) Byte(v byte)      { e.Buf = append(e.Buf, v) }

func (e *Enc) Float64(v float64) {
	e.Buf = binary.LittleEndian.AppendUint64(e.Buf, math.Float64bits(v))
}

func (e *Enc) Bool(v bool) {
	if v {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

func (e *Enc) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.Buf = append(e.Buf, s...)
}

// Len writes a nil-preserving collection length: 0 for nil, n+1 for a
// present collection of n elements (possibly empty).
func (e *Enc) Len(n int, isNil bool) {
	if isNil {
		e.Uvarint(0)
		return
	}
	e.Uvarint(uint64(n) + 1)
}

// Dec is a sticky-error decoder: the first malformed field records an
// error and skips the unread bytes, so every later read returns a zero
// value. Check Err, or call Finish once the whole payload has been read.
//
// The read position is an index, not a shrinking slice: a Dec lives on
// the heap, and re-slicing would store a pointer (and run a GC write
// barrier) on every field read.
type Dec struct {
	buf []byte
	off int
	err error
}

func NewDec(data []byte) *Dec { return &Dec{buf: data} }

// Err returns the first decoding error, if any.
func (d *Dec) Err() error { return d.err }

// Failf records a decoding error unless one is already recorded. Codecs
// call it for semantic checks, such as an index out of range.
func (d *Dec) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: at byte %d: %s", d.off, fmt.Sprintf(format, args...))
		d.off = len(d.buf)
	}
}

// Finish returns the first decoding error, or an error if bytes remain
// unread.
func (d *Dec) Finish() error {
	if d.err == nil && d.off != len(d.buf) {
		d.err = fmt.Errorf("wire: %d trailing bytes", len(d.buf)-d.off)
	}
	return d.err
}

func (d *Dec) Uvarint() uint64 {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.Failf("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *Dec) Varint() int64 {
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.Failf("bad varint")
		return 0
	}
	d.off += n
	return v
}

func (d *Dec) Int() int { return int(d.Varint()) }

func (d *Dec) Byte() byte {
	if d.off >= len(d.buf) {
		d.Failf("truncated payload")
		return 0
	}
	d.off++
	return d.buf[d.off-1]
}

func (d *Dec) Bool() bool { return d.Byte() != 0 }

func (d *Dec) Float64() float64 {
	if len(d.buf)-d.off < 8 {
		d.Failf("truncated payload")
		return 0
	}
	d.off += 8
	return math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off-8:]))
}

// Str reads a string written by Enc.String. (It is not named String so
// that a Dec is not a fmt.Stringer whose formatting consumes input.)
func (d *Dec) Str() string {
	n := d.Count(1)
	d.off += n
	return string(d.buf[d.off-n : d.off])
}

// Count reads a plain element count; each element takes at least width
// bytes.
func (d *Dec) Count(width int) int { return d.bound(d.Uvarint(), width) }

// Len reads a length written by Enc.Len; each element takes at least
// width bytes. A nil collection, and any error, reads as (0, true).
func (d *Dec) Len(width int) (n int, isNil bool) {
	v := d.Uvarint()
	if v == 0 {
		return 0, true
	}
	n = d.bound(v-1, width)
	return n, d.err != nil
}

// Dims reads two plain counts a then b that size an a×b table whose
// elements each take at least width bytes. Each count is capped at
// MaxInt32, which keeps the product from overflowing; the product must
// fit the bytes left. A zero count makes the table empty whatever the
// other count is.
func (d *Dec) Dims(width int) (a, b int) {
	x, y := d.Uvarint(), d.Uvarint()
	if x > math.MaxInt32 || y > math.MaxInt32 || x*y > uint64((len(d.buf)-d.off)/width) {
		d.Failf("%d×%d table exceeds the %d bytes left", x, y, len(d.buf)-d.off)
		return 0, 0
	}
	return int(x), int(y)
}

// bound accepts a count of n elements of width bytes each only if they
// fit in the bytes left.
func (d *Dec) bound(n uint64, width int) int {
	if left := len(d.buf) - d.off; n > uint64(left/width) {
		d.Failf("count %d exceeds the %d bytes left", n, left)
		return 0
	}
	return int(n)
}
