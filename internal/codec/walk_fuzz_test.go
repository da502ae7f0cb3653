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
// record key without decoding it. Neither may panic. Wherever the walk
// accepts two leading components in the directions their tags state,
// GroupLen ends at the second of them, and a group GroupLen reports is
// two components the walk accepts. NamespaceLen never panics, is at most
// GroupLen, and names a namespace that is its own. The checked-in corpus (testdata/fuzz/FuzzComponentWalk) replays under plain
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
		checkGroupLen(t, b)
		checkNamespaceLen(t, b)
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
		if len(ends) >= 2 && desc[0] == (b[0] > 0x7F) && desc[1] == (b[ends[0]] > 0x7F) {
			if n, ok := GroupLen(b); !ok || n != ends[1] {
				t.Fatalf("key %x desc %v: GroupLen = %d, %v; the walk ends the second component at %d", b, desc, n, ok, ends[1])
			}
		}
	})
}

// checkGroupLen holds a group GroupLen reports to the walker: two
// components, in the directions their tags state, that end where it says.
func checkGroupLen(t *testing.T, b []byte) {
	n, ok := GroupLen(b)
	if !ok {
		return
	}
	first, err := componentLen(b, b[0] > 0x7F)
	if err != nil || first >= n {
		t.Fatalf("key %x: GroupLen = %d, but its first component is %d, %v", b, n, first, err)
	}
	dirs := []bool{b[0] > 0x7F, b[first] > 0x7F}
	if ends, err := ComponentEnds(nil, b[:n], dirs); err != nil || ends[0] != first {
		t.Fatalf("key %x: GroupLen = %d, but the walk over %v says %v, %v", b, n, dirs, ends, err)
	}
}

// checkNamespaceLen holds NamespaceLen to its rule: a namespace lies
// within the key and within its group, where the key has one, and is its
// own namespace, so that the store's directory can find a key's tree by
// the names it holds.
func checkNamespaceLen(t *testing.T, b []byte) {
	n, ok := NamespaceLen(b)
	if n < 0 || n > len(b) || (n == 0) != (len(b) == 0) {
		t.Fatalf("key %x: NamespaceLen = %d, %v", b, n, ok)
	}
	if g, gok := GroupLen(b); gok && (!ok || n >= g) {
		t.Fatalf("key %x: NamespaceLen = %d, %v, past GroupLen %d", b, n, ok, g)
	}
	if m, mok := NamespaceLen(b[:n]); m != n || mok != ok {
		t.Fatalf("key %x: NamespaceLen = %d, %v, but its namespace %x has %d, %v", b, n, ok, b[:n], m, mok)
	}
}
