package wire

import (
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	e := &Enc{}
	e.Uvarint(1 << 40)
	e.Varint(-7)
	e.Int(-1 << 33)
	e.Byte(0xfe)
	e.Bool(true)
	e.Float64(math.Pi)
	e.String("héllo")
	e.Len(0, true)
	e.Len(0, false)
	e.Len(3, false)

	d := NewDec(e.Buf)
	if v := d.Uvarint(); v != 1<<40 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := d.Varint(); v != -7 {
		t.Errorf("Varint = %d", v)
	}
	if v := d.Int(); v != -1<<33 {
		t.Errorf("Int = %d", v)
	}
	if v := d.Byte(); v != 0xfe {
		t.Errorf("Byte = %#x", v)
	}
	if !d.Bool() {
		t.Error("Bool = false")
	}
	if v := d.Float64(); v != math.Pi {
		t.Errorf("Float64 = %v", v)
	}
	if v := d.Str(); v != "héllo" {
		t.Errorf("Str = %q", v)
	}
	for _, want := range []struct {
		n     int
		isNil bool
	}{{0, true}, {0, false}} {
		if n, isNil := d.Len(1); n != want.n || isNil != want.isNil {
			t.Errorf("Len = (%d, %v), want (%d, %v)", n, isNil, want.n, want.isNil)
		}
	}
	// The last length declares three elements but no bytes follow it.
	if n, isNil := d.Len(1); !isNil || n != 0 || d.Err() == nil {
		t.Errorf("Len over an empty rest = (%d, %v, %v), want an error", n, isNil, d.Err())
	}
}

// TestCountsBoundedByBytesLeft pins the one hostile-input rule: a count
// is accepted exactly when count × width fits in the bytes left.
func TestCountsBoundedByBytesLeft(t *testing.T) {
	payload := func(count uint64, rest int) []byte {
		e := &Enc{}
		e.Uvarint(count)
		return append(e.Buf, make([]byte, rest)...)
	}
	for _, c := range []struct {
		count uint64
		width int
		rest  int
		ok    bool
	}{
		{2, 8, 16, true},
		{3, 8, 16, false},
		{16, 1, 16, true},
		{17, 1, 16, false},
		{math.MaxUint64, 8, 16, false},
	} {
		d := NewDec(payload(c.count, c.rest))
		n := d.Count(c.width)
		if ok := d.Err() == nil; ok != c.ok || (ok && uint64(n) != c.count) {
			t.Errorf("Count(%d) of %d over %d bytes = %d, err %v; want ok=%v", c.width, c.count, c.rest, n, d.Err(), c.ok)
		}
	}
	// Len counts the n+1 form against the same bound.
	d := NewDec(payload(17+1, 16))
	if _, isNil := d.Len(1); !isNil || d.Err() == nil {
		t.Error("Len accepted 17 one-byte elements in 16 bytes")
	}
}

// TestDimsProductCannotOverflow: 2^32 × 2^32 wraps to 0 in uint64, so a
// naive product check would accept it; the MaxInt32 cap must not.
func TestDimsProductCannotOverflow(t *testing.T) {
	for _, dims := range [][2]uint64{{1 << 32, 1 << 32}, {math.MaxInt32, math.MaxInt32}, {4, 5}} {
		e := &Enc{}
		e.Uvarint(dims[0])
		e.Uvarint(dims[1])
		e.Buf = append(e.Buf, make([]byte, 16)...)
		d := NewDec(e.Buf)
		if a, b := d.Dims(1); d.Err() == nil {
			t.Errorf("Dims accepted %d×%d over 16 bytes as %d×%d", dims[0], dims[1], a, b)
		}
	}
	e := &Enc{}
	e.Uvarint(1 << 30)
	e.Uvarint(0)
	d := NewDec(e.Buf)
	if a, b := d.Dims(1); a != 1<<30 || b != 0 || d.Finish() != nil {
		t.Errorf("an empty 2^30×0 table = %d×%d, %v; want accepted", a, b, d.Err())
	}
}

func TestStickyErrorAndTrailingBytes(t *testing.T) {
	d := NewDec([]byte{0x80}) // a uvarint cut short
	if d.Uvarint() != 0 || d.Err() == nil {
		t.Fatal("truncated uvarint not an error")
	}
	first := d.Err()
	if d.Str() != "" || d.Float64() != 0 || d.Byte() != 0 || d.Finish() != first {
		t.Error("reads after an error must return zero values and keep the first error")
	}
	d = NewDec([]byte{1, 2})
	d.Byte()
	if d.Finish() == nil {
		t.Error("trailing byte not reported by Finish")
	}
}
