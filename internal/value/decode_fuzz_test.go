package value

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzDecodeRow holds the record decoder to hostile bytes: it never
// panics, and whatever it accepts re-encodes to bytes that decode to the
// same values and re-encode to themselves (the input itself need not be
// canonical: a bool byte of 2, a padded varint, a NaN with a payload and
// -0 all decode). It is differential across the arena: the input decoded
// twice into one shared arena and once by DecodeRow agrees three ways, the
// second decode leaves the first's strings as they were, and StringBytes
// counts exactly the bytes the strings and blobs decode to. It is
// differential across the skip mask too: decoded with skip, the input
// fails with the very error the whole decode gives, or else yields the
// whole decode's values with every skipped cell left zero, and
// StringBytes(b, skip) counts exactly what that decode wrote to its arena.
// The checked-in corpus (testdata/fuzz/FuzzDecodeRow) replays under plain
// `go test`; its skipped-* seeds hide a fault in a value the mask skips.
func FuzzDecodeRow(f *testing.F) {
	f.Add(EncodeRow(Row{Int(-7), Str("a\x00\xff"), Bool(true), Null(), Float(-0.5), Bytes([]byte{0xC3, 0x28, 0})}), uint64(0b100010))
	f.Add(EncodeRow(Row{Str(""), Int(1)}), uint64(0))
	f.Add(EncodeRow(Row{Bytes(nil), Str("x")}), ^uint64(0))
	f.Fuzz(func(t *testing.T, b []byte, skip uint64) {
		// One arena, grown for one decode: the second regrows it.
		var arena strings.Builder
		arena.Grow(StringBytes(b, 0))
		first, second := make(Row, len(b)+1), make(Row, len(b)+1)
		n1, err1 := DecodeRowArena(first, b, 0, &arena)
		kept := make(Row, n1)
		for i, v := range first[:n1] {
			kept[i] = Value{T: v.T, I: v.I, S: strings.Clone(v.S)}
		}
		n2, err2 := DecodeRowArena(second, b, 0, &arena)
		row, err := DecodeRow(b)
		if (err1 == nil) != (err == nil) || (err2 == nil) != (err == nil) {
			t.Fatalf("%x: DecodeRow says %v, the arena decodes %v and %v", b, err, err1, err2)
		}

		var masked strings.Builder
		part := make(Row, len(b)+1)
		nm, errm := DecodeRowArena(part, b, skip, &masked)
		if (errm == nil) != (err1 == nil) || errm != nil && errm.Error() != err1.Error() {
			t.Fatalf("%x: skipping %b the decode says %v, the whole decode %v", b, skip, errm, err1)
		}
		if err != nil {
			return
		}
		if n1 != len(row) || n2 != len(row) || CompareRows(first[:n1], row) != 0 || CompareRows(second[:n2], row) != 0 {
			t.Fatalf("%x: DecodeRow gives %v, the arena %v and %v", b, row, first[:n1], second[:n2])
		}
		if !identical(first[:n1], kept) {
			t.Fatalf("%x: the second decode into the arena changed the first's values %v to %v", b, kept, first[:n1])
		}
		payload := 0
		for _, v := range row {
			if v.T == TypeString || v.T == TypeBytes {
				payload += len(v.S)
			}
		}
		if got := StringBytes(b, 0); got != payload {
			t.Fatalf("%x: StringBytes = %d, its strings and blobs hold %d bytes", b, got, payload)
		}

		if nm != len(row) {
			t.Fatalf("%x: skipping %b the decode counts %d values, the whole decode %d", b, skip, nm, len(row))
		}
		for i, v := range part[:nm] {
			want := first[i]
			if skip>>i&1 != 0 {
				want = Value{}
			}
			if v != want {
				t.Fatalf("%x: skipping %b value %d decodes to %#v, want %#v", b, skip, i, v, want)
			}
		}
		if got := StringBytes(b, skip); got != masked.Len() {
			t.Fatalf("%x: StringBytes(skip %b) = %d, the decode wrote %d bytes", b, skip, got, masked.Len())
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
