package codec

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"piql/internal/value"
)

func randomValue(r *rand.Rand) value.Value {
	switch r.Intn(6) {
	case 0:
		return value.Null()
	case 1:
		return value.Bool(r.Intn(2) == 0)
	case 2:
		return value.Int(r.Int63() - r.Int63())
	case 3:
		return value.Float(math.Float64frombits(r.Uint64()))
	case 4:
		n := r.Intn(10)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		return value.Str(string(b))
	default:
		n := r.Intn(10)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		return value.Bytes(b)
	}
}

func randomRow(r *rand.Rand, n int) value.Row {
	row := make(value.Row, n)
	for i := range row {
		row[i] = randomValue(r)
	}
	return row
}

// TestOrderPreservingProperty is the load-bearing invariant of the module:
// byte order of encodings equals semantic order of rows.
func TestOrderPreservingProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		a, b := randomRow(r, n), randomRow(r, n)
		ea, eb := EncodeKey(a, nil), EncodeKey(b, nil)
		return sign(bytes.Compare(ea, eb)) == sign(value.CompareRows(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestDescendingInvertsOrder checks that a DESC component reverses order.
func TestDescendingInvertsOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomValue(r), randomValue(r)
		ea := EncodeKey(value.Row{a}, []bool{Desc})
		eb := EncodeKey(value.Row{b}, []bool{Desc})
		return sign(bytes.Compare(ea, eb)) == -sign(value.Compare(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestMixedDirectionComposite exercises ASC+DESC composite keys like the
// (owner ASC, timestamp DESC) thoughts index from the paper.
func TestMixedDirectionComposite(t *testing.T) {
	desc := []bool{Asc, Desc}
	k := func(owner string, ts int64) []byte {
		return EncodeKey(value.Row{value.Str(owner), value.Int(ts)}, desc)
	}
	// Same owner: later timestamps sort first.
	if bytes.Compare(k("bob", 10), k("bob", 5)) >= 0 {
		t.Error("DESC timestamp did not invert within owner")
	}
	// Different owners: owner ASC dominates regardless of timestamp.
	if bytes.Compare(k("alice", 1), k("bob", 100)) >= 0 {
		t.Error("ASC owner did not dominate")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		row := randomRow(r, n)
		desc := make([]bool, n)
		for i := range desc {
			desc[i] = r.Intn(2) == 0
		}
		enc := EncodeKey(row, desc)
		dec, err := DecodeKey(enc, n, desc)
		if err != nil {
			return false
		}
		// NaN compares equal to NaN under value.Compare, so CompareRows
		// handles the one non-reflexive float case for us.
		return value.CompareRows(row, dec) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestStringPrefixOrdering(t *testing.T) {
	// "a" < "ab" must hold even with the terminator in place, and a string
	// containing 0x00 must not escape its field.
	a := EncodeKey(value.Row{value.Str("a")}, nil)
	ab := EncodeKey(value.Row{value.Str("ab")}, nil)
	if bytes.Compare(a, ab) >= 0 {
		t.Error(`"a" >= "ab" after encoding`)
	}
	zero := EncodeKey(value.Row{value.Str("a\x00b"), value.Int(1)}, nil)
	row, err := DecodeKey(zero, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if row[0].S != "a\x00b" || row[1].I != 1 {
		t.Errorf("NUL-containing string corrupted: %v", row)
	}
}

func TestPrefixEnd(t *testing.T) {
	cases := []struct {
		in   []byte
		want []byte
	}{
		{[]byte{1, 2, 3}, []byte{1, 2, 4}},
		{[]byte{1, 0xFF}, []byte{2}},
		{[]byte{0xFF, 0xFF}, nil},
		{[]byte{}, nil},
	}
	for _, c := range cases {
		if got := PrefixEnd(c.in); !bytes.Equal(got, c.want) {
			t.Errorf("PrefixEnd(% x) = % x, want % x", c.in, got, c.want)
		}
	}
}

// TestPrefixEndBoundsProperty: every key extending prefix sorts < PrefixEnd.
func TestPrefixEndBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		prefix := EncodeKey(randomRow(r, 1+r.Intn(2)), nil)
		ext := EncodeKey(randomRow(r, 1), nil)
		full := append(append([]byte{}, prefix...), ext...)
		end := PrefixEnd(prefix)
		if end == nil {
			return true // all-0xFF prefix: unbounded above
		}
		return bytes.Compare(full, end) < 0 && bytes.Compare(prefix, end) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestSizeIsEncodedLength: Size is the number of bytes AppendValue
// appends, in both directions — what a caller sizes one buffer for
// several keys by. Half the draws are strings and blobs dense in 0x00,
// each of which the encoding escapes to two bytes.
func TestSizeIsEncodedLength(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r)
		if r.Intn(2) == 0 {
			b := make([]byte, r.Intn(10))
			for i := range b {
				if r.Intn(2) == 0 {
					b[i] = byte(r.Intn(256))
				}
			}
			if v = value.Str(string(b)); r.Intn(2) == 0 {
				v = value.Bytes(b)
			}
		}
		for _, desc := range []bool{Asc, Desc} {
			if got := len(AppendValue([]byte{0xAA}, v, desc)) - 1; got != Size(v) {
				t.Logf("%v (desc=%v): AppendValue appends %d bytes, Size says %d", v, desc, got, Size(v))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestAppendPrefixEnd: AppendPrefixEnd(dst, p) is dst followed by
// PrefixEnd(p), and a prefix with no end appends nothing — so from nil it
// is PrefixEnd itself, its nil included. Prefixes are drawn heavy in 0xFF,
// and p is also given where an operator's key buffer holds it: in dst's
// own array, below its length.
func TestAppendPrefixEnd(t *testing.T) {
	if got := AppendPrefixEnd(nil, []byte{0xFF, 0xFF}); got != nil {
		t.Errorf("AppendPrefixEnd(nil, ff ff) = % x, want nil", got)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := make([]byte, r.Intn(6))
		for i := range p {
			if p[i] = 0xFF; r.Intn(3) == 0 {
				p[i] = byte(r.Intn(256))
			}
		}
		want := PrefixEnd(p)
		if got := AppendPrefixEnd(nil, p); !bytes.Equal(got, want) || (got == nil) != (want == nil) {
			return false
		}
		buf := append([]byte{7}, p...)
		got := AppendPrefixEnd(buf, buf[1:])
		return bytes.Equal(got[:len(buf)], append([]byte{7}, p...)) && bytes.Equal(got[len(buf):], want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeKeyErrors(t *testing.T) {
	good := EncodeKey(value.Row{value.Str("hi"), value.Int(1)}, nil)
	if _, err := DecodeKey(good[:3], 2, nil); err == nil {
		t.Error("truncated key accepted")
	}
	if _, err := DecodeKey(good, 1, nil); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := DecodeKey([]byte{0x63}, 1, nil); err == nil {
		t.Error("unknown tag accepted")
	}
	if _, err := DecodeKey([]byte{tagString, 'a'}, 1, nil); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := DecodeKey([]byte{tagString, escByte, 0x55}, 1, nil); err == nil {
		t.Error("bad escape accepted")
	}
	if _, err := DecodeKey([]byte{tagInt, 1, 2}, 1, nil); err == nil {
		t.Error("short int accepted")
	}
	if _, err := DecodeKey([]byte{tagFloat, 1, 2}, 1, nil); err == nil {
		t.Error("short float accepted")
	}
	if _, err := DecodeKey([]byte{tagBool}, 1, nil); err == nil {
		t.Error("short bool accepted")
	}
	if _, err := DecodeKey(nil, 1, nil); err == nil {
		t.Error("empty key accepted")
	}
	// A bool is 0 or 1 once un-inverted: the walker's spans are copied
	// into record keys as they are, so nothing non-canonical may pass.
	if _, err := DecodeKey([]byte{tagBool, 2}, 1, nil); err == nil {
		t.Error("bool payload 2 accepted")
	}
	if _, err := DecodeKey([]byte{^tagBool, ^byte(1)}, 1, []bool{Desc}); err != nil {
		t.Errorf("descending true rejected: %v", err)
	}
	if _, err := DecodeKey([]byte{^tagBool, 1}, 1, []bool{Desc}); err == nil {
		t.Error("descending bool payload 0xfe accepted")
	}
	// Likewise a NaN is the one the encoder writes (sort bits 0).
	if _, err := DecodeKey([]byte{tagFloat, 0xFF, 0xF8, 0, 0, 0, 0, 0, 1}, 1, nil); err == nil {
		t.Error("non-canonical NaN accepted")
	}
	// And a zero is +0: value.Float never holds the other one.
	if _, err := DecodeKey([]byte{tagFloat, 0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, 1, nil); err == nil {
		t.Error("negative zero accepted")
	}
	if row, err := DecodeKey(EncodeKey(value.Row{value.Float(math.NaN())}, []bool{Desc}), 1, []bool{Desc}); err != nil || !math.IsNaN(row[0].Float()) {
		t.Errorf("descending NaN: %v, %v", row, err)
	}
}

// TestGroupLen: a key's group is its namespace and its leading key
// component, each read in the direction its tag states; bytes that do not
// start with two components have none.
func TestGroupLen(t *testing.T) {
	ns := EncodeKey(value.Row{value.Str("t:thoughts")}, nil)
	owner := AppendValue(bytes.Clone(ns), value.Str("u01"), Asc)
	newest := AppendValue(EncodeKey(value.Row{value.Str("x:newest")}, nil), value.Int(7), Desc)
	cases := []struct {
		name string
		key  []byte
		want int // -1: no group
	}{
		{"ascending leading component", AppendValue(bytes.Clone(owner), value.Int(3), Asc), len(owner)},
		{"DESC leading component", AppendValue(bytes.Clone(newest), value.Str("u01"), Desc), len(newest)},
		{"DESC leading string with an escaped 0x00",
			EncodeKey(value.Row{value.Str("x:by"), value.Str("a\x00b"), value.Int(1)}, []bool{Asc, Desc, Asc}),
			len(EncodeKey(value.Row{value.Str("x:by"), value.Str("a\x00b")}, []bool{Asc, Desc}))},
		{"single-component record key", owner, len(owner)},
		{"namespace alone", ns, -1},
		{"empty", nil, -1},
		{"byte key", []byte("key-00042"), -1},
		{"pad below every table", []byte("\x00pad000001"), -1},
		{"truncated leading component", owner[:len(owner)-1], -1},
	}
	for _, c := range cases {
		n, ok := GroupLen(c.key)
		if want := c.want >= 0; ok != want || (ok && n != c.want) {
			t.Errorf("%s: GroupLen(%x) = %d, %v; want %d", c.name, c.key, n, ok, c.want)
		}
	}
}

// TestNamespaceLen: a key's namespace is its first component; bytes that
// are not a codec key group by a first byte that is no tag, and are
// their own namespace (not ok) when it is one. None of it allocates,
// malformed bytes included.
func TestNamespaceLen(t *testing.T) {
	ns := EncodeKey(value.Row{value.Str("t:thoughts")}, nil)
	record := AppendValue(bytes.Clone(ns), value.Str("u01"), Asc)
	descNS := EncodeKey(value.Row{value.Str("x:newest")}, []bool{Desc})
	cases := []struct {
		name string
		key  []byte
		want int
		ok   bool
	}{
		{"record key", record, len(ns), true},
		{"namespace alone", ns, len(ns), true},
		{"DESC namespace", AppendValue(bytes.Clone(descNS), value.Int(7), Asc), len(descNS), true},
		{"byte key", []byte("key-00042"), 1, true},
		{"pad below every table", []byte("\x00pad000001"), 1, true},
		{"untagged high byte", []byte{0x80, 0x06}, 1, true},
		{"truncated namespace", ns[:len(ns)-1], len(ns) - 1, false},
		{"bad bool", []byte{tagBool, 2, 0x41}, 3, false},
		{"empty", nil, 0, false},
	}
	for _, c := range cases {
		n, ok := NamespaceLen(c.key)
		if n != c.want || ok != c.ok {
			t.Errorf("%s: NamespaceLen(%x) = %d, %v; want %d, %v", c.name, c.key, n, ok, c.want, c.ok)
		}
		if allocs := testing.AllocsPerRun(10, func() { NamespaceLen(c.key); GroupLen(c.key) }); allocs != 0 {
			t.Errorf("%s: NamespaceLen and GroupLen allocated %v times", c.name, allocs)
		}
	}
}

// TestComponentEndsAllocatesNothing: the walk is what the dereference
// path runs per index entry, into a buffer its caller keeps on the stack.
func TestComponentEndsAllocatesNothing(t *testing.T) {
	desc := []bool{Asc, Desc, Asc, Desc}
	key := EncodeKey(value.Row{value.Str("x:by_title"), value.Str("a\x00b"), value.Int(-3), value.Bool(true)}, desc)
	var buf [8]int
	allocs := testing.AllocsPerRun(100, func() {
		if ends, err := ComponentEnds(buf[:0], key, desc); err != nil || ends[3] != len(key) {
			t.Fatalf("ends %v, err %v", ends, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ComponentEnds allocated %v times", allocs)
	}
}

func TestIntBoundaries(t *testing.T) {
	vals := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	var prev []byte
	for i, v := range vals {
		enc := EncodeKey(value.Row{value.Int(v)}, nil)
		if i > 0 && bytes.Compare(prev, enc) >= 0 {
			t.Errorf("int ordering broken at %d", v)
		}
		prev = enc
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

// TestCompareAgreesWithKeyOrder holds value.Compare to the promise in its
// package comment — ordering follows key-encoding order — where the
// random tests above almost never look: every pair of an edge table
// (±0, NaN, ±Inf, the bools, "" against "\x00", the empty blob against
// nil, every type against every other), then random values against the
// edges and each other, ascending and descending. In particular values
// that are Equal are the same key.
func TestCompareAgreesWithKeyOrder(t *testing.T) {
	edges := []value.Value{
		value.Null(),
		value.Bool(false), value.Bool(true),
		value.Int(math.MinInt64), value.Int(-1), value.Int(0), value.Int(1), value.Int(math.MaxInt64),
		value.Float(math.NaN()), value.Float(math.Float64frombits(0xFFF8_0000_0000_BEEF)),
		value.Float(math.Inf(-1)), value.Float(-math.MaxFloat64), value.Float(-math.SmallestNonzeroFloat64),
		value.Float(math.Copysign(0, -1)), value.Float(0),
		value.Float(math.SmallestNonzeroFloat64), value.Float(1), value.Float(math.Inf(1)),
		value.Str(""), value.Str("\x00"), value.Str("\x00\x00"), value.Str("\x00\x01"), value.Str("\x01"), value.Str("a"), value.Str("a\x00"), value.Str("\xff"),
		value.Bytes(nil), value.Bytes([]byte{}), value.Bytes([]byte{0}), value.Bytes([]byte{0, 0xFF}), value.Bytes([]byte{1}), value.Bytes([]byte{0xFF}),
	}
	check := func(a, b value.Value) {
		t.Helper()
		want := sign(value.Compare(a, b))
		for _, desc := range []bool{Asc, Desc} {
			ea, eb := EncodeKey(value.Row{a}, []bool{desc}), EncodeKey(value.Row{b}, []bool{desc})
			got := sign(bytes.Compare(ea, eb))
			if desc {
				got = -got
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, but their keys (desc=%v) %x and %x order %d", a, b, want, desc, ea, eb, got)
			}
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	r := rand.New(rand.NewSource(22))
	pick := func() value.Value {
		if r.Intn(3) == 0 {
			return edges[r.Intn(len(edges))]
		}
		return randomValue(r)
	}
	for i := 0; i < 20000; i++ {
		check(pick(), pick())
	}
}
