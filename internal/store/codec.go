package store

import (
	"encoding/binary"
	"fmt"
	"math"
)

// enc/dec are the store's little binary codec primitives: uvarint-framed,
// append-only, deterministic (map contents are serialized in sorted key
// order by the callers). The store envelope carries version and checksum;
// these carry none.

type enc struct{ buf []byte }

func (e *enc) u64(v uint64)  { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *enc) i64(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *enc) int(v int)     { e.i64(int64(v)) }
func (e *enc) u16(v uint16)  { e.u64(uint64(v)) }
func (e *enc) byte(v byte)   { e.buf = append(e.buf, v) }
func (e *enc) f64(v float64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v)) }
func (e *enc) bool(v bool) {
	if v {
		e.byte(1)
	} else {
		e.byte(0)
	}
}
func (e *enc) str(s string) {
	e.u64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *enc) ints(vs []int) {
	e.lenN(len(vs), vs == nil)
	for _, v := range vs {
		e.int(v)
	}
}

// lenN appends a collection length with nilness preserved: nil encodes
// as 0 and a non-nil collection of n elements as n+1. Decoders can then
// reconstruct nil-vs-empty exactly — the round-trip tests require deep
// equality, and reflect.DeepEqual distinguishes the two.
func (e *enc) lenN(n int, isNil bool) {
	if isNil {
		e.u64(0)
		return
	}
	e.u64(uint64(n) + 1)
}

type dec struct {
	data []byte
	err  error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("store: decode %s: malformed payload", what)
	}
}

func (d *dec) u64(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.data = d.data[n:]
	return v
}

func (d *dec) i64(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.data = d.data[n:]
	return v
}

func (d *dec) int(what string) int    { return int(d.i64(what)) }
func (d *dec) u16(what string) uint16 { return uint16(d.u64(what)) }
func (d *dec) byte(what string) byte {
	if d.err != nil {
		return 0
	}
	if len(d.data) == 0 {
		d.fail(what)
		return 0
	}
	v := d.data[0]
	d.data = d.data[1:]
	return v
}

func (d *dec) f64(what string) float64 {
	if d.err != nil {
		return 0
	}
	if len(d.data) < 8 {
		d.fail(what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data))
	d.data = d.data[8:]
	return v
}

func (d *dec) bool(what string) bool { return d.byte(what) != 0 }

func (d *dec) str(what string) string {
	n := d.u64(what)
	if d.err != nil {
		return ""
	}
	if uint64(len(d.data)) < n {
		d.fail(what)
		return ""
	}
	s := string(d.data[:n])
	d.data = d.data[n:]
	return s
}

func (d *dec) ints(what string) []int {
	n, isNil := d.lenN(what)
	if d.err != nil || isNil {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = d.int(what)
	}
	return vs
}

// lenN is the inverse of enc.lenN: it returns the element count and
// whether the collection was nil, guarding the count against the
// remaining payload: every element needs at least one byte, so a count
// larger than the remaining bytes is corruption, not a huge allocation.
func (d *dec) lenN(what string) (int, bool) {
	v := d.u64(what)
	if d.err != nil || v == 0 {
		return 0, true
	}
	n := v - 1
	if n > uint64(len(d.data)) {
		d.fail(what)
		return 0, true
	}
	return int(n), false
}

// finish reports a decoding error, including trailing garbage.
func (d *dec) finish(what string) error {
	if d.err != nil {
		return d.err
	}
	if len(d.data) != 0 {
		return fmt.Errorf("store: decode %s: %d trailing bytes", what, len(d.data))
	}
	return nil
}
