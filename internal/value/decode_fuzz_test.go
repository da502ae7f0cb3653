package value

import (
	"bytes"
	"testing"
)

// FuzzDecodeRow holds the record decoder to hostile bytes: it never
// panics, and whatever it accepts re-encodes to bytes that decode to the
// same values and re-encode to themselves (the input itself need not be
// canonical: a bool byte of 2, a padded varint, a NaN with a payload and
// -0 all decode). The checked-in corpus (testdata/fuzz/FuzzDecodeRow)
// replays under plain `go test`.
func FuzzDecodeRow(f *testing.F) {
	f.Add(EncodeRow(Row{Int(-7), Str("a\x00\xff"), Bool(true), Null(), Float(-0.5), Bytes([]byte{0xC3, 0x28, 0})}))
	f.Fuzz(func(t *testing.T, b []byte) {
		row, err := DecodeRow(b)
		if err != nil {
			return
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
