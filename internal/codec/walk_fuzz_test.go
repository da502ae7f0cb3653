package codec

import (
	"bytes"
	"testing"

	"piql/internal/value"
)

// FuzzComponentWalk holds the walker to the decoder on arbitrary bytes:
// ComponentEnds and DecodeKey fail on the same inputs with the same error,
// and where they succeed every walked end is a boundary DecodeKey agrees
// with and every span re-encodes to itself: only canonical encodings are
// accepted, which is what lets the dereference path copy a span into a
// record key without decoding it. Neither may panic. The
// checked-in corpus (testdata/fuzz/FuzzComponentWalk) replays under plain
// `go test`.
func FuzzComponentWalk(f *testing.F) {
	row := value.Row{value.Str("a\x00b"), value.Int(-7), value.Bool(true), value.Null(), value.Float(-0.5), value.Bytes([]byte{0xFF, 0})}
	f.Add(EncodeKey(row, nil), byte(len(row)), byte(0))
	f.Add(EncodeKey(row, []bool{Desc, Asc, Desc, Desc, Asc, Desc}), byte(len(row)), byte(0b101101))
	f.Add([]byte{tagBool, 2}, byte(1), byte(0))
	f.Add([]byte{^tagString, ^escByte, ^byte(0x55)}, byte(1), byte(1))
	f.Fuzz(func(t *testing.T, b []byte, n, descBits byte) {
		desc := make([]bool, 1+n%7)
		for i := range desc {
			desc[i] = descBits>>i&1 == 1
		}
		ends, werr := ComponentEnds(nil, b, desc)
		vals, derr := DecodeKey(b, len(desc), desc)
		if werr != nil || derr != nil {
			if werr == nil || derr == nil || werr.Error() != derr.Error() {
				t.Fatalf("key %x desc %v: walker says %v, decoder says %v", b, desc, werr, derr)
			}
			return
		}
		from := 0
		for i, end := range ends {
			if _, err := DecodeKey(b[:end], i+1, desc[:i+1]); err != nil {
				t.Fatalf("key %x desc %v: component %d does not end at %d: %v", b, desc, i, end, err)
			}
			if got := AppendValue(nil, vals[i], desc[i]); !bytes.Equal(got, b[from:end]) {
				t.Fatalf("key %x desc %v: component %d is %x, re-encodes to %x", b, desc, i, b[from:end], got)
			}
			from = end
		}
	})
}
