package value

import (
	"bytes"
	"testing"
	"unsafe"
)

// FuzzDecodeRow holds the record decoder to hostile bytes: it never
// panics, and whatever it accepts re-encodes to bytes that decode to the
// same values and re-encode to themselves (the input itself need not be
// canonical: a bool byte of 2, a padded varint, a NaN with a payload and
// -0 all decode). It is differential across the entry points: DecodeRow,
// DecodeRowInto and DecodeRowSkip with nothing skipped agree three ways,
// and every string or blob they decode points into the input, copied
// nowhere. It is differential across the skip mask too: decoded with
// skip, the input fails with the very error the whole decode gives, or
// else yields the whole decode's values with every skipped cell left
// zero. The checked-in corpus (testdata/fuzz/FuzzDecodeRow) replays under
// plain `go test`; its skipped-* seeds hide a fault in a value the mask
// skips.
func FuzzDecodeRow(f *testing.F) {
	f.Add(EncodeRow(Row{Int(-7), Str("a\x00\xff"), Bool(true), Null(), Float(-0.5), Bytes([]byte{0xC3, 0x28, 0})}), uint64(0b100010))
	f.Add(EncodeRow(Row{Str(""), Int(1)}), uint64(0))
	f.Add(EncodeRow(Row{Bytes(nil), Str("x")}), ^uint64(0))
	f.Fuzz(func(t *testing.T, b []byte, skip uint64) {
		into, whole := make(Row, len(b)+1), make(Row, len(b)+1)
		n1, err1 := DecodeRowInto(into, b)
		n2, err2 := DecodeRowSkip(whole, b, 0)
		row, err := DecodeRow(b)
		if (err1 == nil) != (err == nil) || (err2 == nil) != (err == nil) {
			t.Fatalf("%x: DecodeRow says %v, DecodeRowInto %v, DecodeRowSkip %v", b, err, err1, err2)
		}

		part := make(Row, len(b)+1)
		nm, errm := DecodeRowSkip(part, b, skip)
		if (errm == nil) != (err1 == nil) || errm != nil && errm.Error() != err1.Error() {
			t.Fatalf("%x: skipping %b the decode says %v, the whole decode %v", b, skip, errm, err1)
		}
		if err != nil {
			return
		}
		if n1 != len(row) || n2 != len(row) || !identical(into[:n1], row) || !identical(whole[:n2], row) {
			t.Fatalf("%x: DecodeRow gives %v, DecodeRowInto %v, DecodeRowSkip %v", b, row, into[:n1], whole[:n2])
		}
		for i, v := range row {
			if len(v.S) > 0 && !within(v.S, b) {
				t.Fatalf("%x: value %d, %v, does not point into the record", b, i, v)
			}
		}

		if nm != len(row) {
			t.Fatalf("%x: skipping %b the decode counts %d values, the whole decode %d", b, skip, nm, len(row))
		}
		for i, v := range part[:nm] {
			want := row[i]
			if skip>>i&1 != 0 {
				want = Value{}
			}
			if v != want {
				t.Fatalf("%x: skipping %b value %d decodes to %#v, want %#v", b, skip, i, v, want)
			}
		}

		enc := EncodeRow(row)
		again, err := DecodeRow(enc)
		if err != nil {
			t.Fatalf("%x decodes to %v, whose encoding %x does not decode: %v", b, row, enc, err)
		}
		if CompareRows(row, again) != 0 {
			t.Fatalf("%x decodes to %v, its encoding %x to %v", b, row, enc, again)
		}
		if twice := EncodeRow(again); !bytes.Equal(enc, twice) {
			t.Fatalf("%x: encoding %x re-encodes to %x", b, enc, twice)
		}
	})
}

// identical reports whether two rows hold the same fields, bit for bit
// (Compare calls every NaN equal).
func identical(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// within reports whether s's bytes lie inside b's.
func within(s string, b []byte) bool {
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return p >= lo && p+uintptr(len(s)) <= lo+uintptr(len(b))
}
