package value

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRowRoundTrip(t *testing.T) {
	rows := []Row{
		{},
		{Null()},
		{Bool(true), Bool(false)},
		{Int(0), Int(-1), Int(math.MaxInt64), Int(math.MinInt64)},
		{Float(0), Float(-0.0), Float(math.Inf(1)), Float(1e-300)},
		{Str(""), Str("hello"), Str("héllo \x00 world")},
		{Bytes(nil), Bytes([]byte{0, 255, 1})},
		{Int(42), Str("mixed"), Bool(true), Float(3.14), Null()},
	}
	for _, r := range rows {
		enc := EncodeRow(r)
		dec, err := DecodeRow(enc)
		if err != nil {
			t.Fatalf("DecodeRow(%v): %v", r, err)
		}
		if CompareRows(r, dec) != 0 {
			t.Fatalf("round trip mismatch: %v -> %v", r, dec)
		}
	}
}

func TestEncodeRowNaN(t *testing.T) {
	r := Row{Float(math.NaN())}
	dec, err := DecodeRow(EncodeRow(r))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(dec[0].Float()) {
		t.Fatalf("NaN did not survive round trip: %v", dec[0])
	}
}

func TestDecodeRowErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":              {},
		"huge count":         {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
		"truncated value":    {1},
		"unknown tag":        {1, 0x63},
		"truncated bool":     {1, byte(TypeBool)},
		"truncated float":    {1, byte(TypeFloat), 1, 2},
		"bad string length":  {1, byte(TypeString), 0x80},
		"short string":       {1, byte(TypeString), 5, 'a'},
		"short bytes":        {1, byte(TypeBytes), 5, 'a'},
		"trailing bytes":     append(EncodeRow(Row{Int(1)}), 0xAA),
		"count over payload": {200},
	}
	for name, b := range cases {
		if _, err := DecodeRow(b); err == nil {
			t.Errorf("%s: DecodeRow accepted corrupt input % x", name, b)
		}
	}
}

func TestDecodeRowInto(t *testing.T) {
	src := Row{Int(42), Str("mixed"), Bool(true), Float(3.14), Null(), Bytes([]byte{7, 0, 9})}
	enc := EncodeRow(src)

	// Exact-width destination.
	dst := make(Row, len(src))
	n, err := DecodeRowInto(dst, enc)
	if err != nil || n != len(src) {
		t.Fatalf("DecodeRowInto = %d, %v", n, err)
	}
	if CompareRows(src, dst) != 0 {
		t.Fatalf("decode mismatch: %v -> %v", src, dst)
	}

	// Wider destination: the tail must stay untouched.
	wide := make(Row, len(src)+3)
	sentinel := Str("sentinel")
	for i := len(src); i < len(wide); i++ {
		wide[i] = sentinel
	}
	if n, err := DecodeRowInto(wide, enc); err != nil || n != len(src) {
		t.Fatalf("wide DecodeRowInto = %d, %v", n, err)
	}
	if CompareRows(src, wide[:len(src)]) != 0 {
		t.Fatalf("wide decode mismatch: %v", wide[:len(src)])
	}
	for i := len(src); i < len(wide); i++ {
		if !Equal(wide[i], sentinel) {
			t.Fatalf("tail position %d clobbered: %v", i, wide[i])
		}
	}

	// Too-narrow destination must error, not truncate or panic.
	if _, err := DecodeRowInto(make(Row, len(src)-1), enc); err == nil {
		t.Fatal("narrow destination accepted")
	}

	// Corrupt inputs reported through the same validation as DecodeRow.
	for name, b := range map[string][]byte{
		"empty":           {},
		"trailing":        append(EncodeRow(Row{Int(1)}), 0xAA),
		"truncated value": {2, byte(TypeInt)},
	} {
		if _, err := DecodeRowInto(make(Row, 8), b); err == nil {
			t.Errorf("%s: DecodeRowInto accepted corrupt input", name)
		}
	}
}

// TestDecodeBatchAllocations pins the batch decode: the strings of ten
// records, three apiece, point into their records, so decoding all
// thirty into rows the caller has costs no allocation.
func TestDecodeBatchAllocations(t *testing.T) {
	const width = 4
	recs := make([][]byte, 10)
	for i := range recs {
		recs[i] = EncodeRow(Row{Str(fmt.Sprintf("user%02d", i)), Int(int64(i)), Str("Berkeley"), Str("")})
	}
	dst := make(Row, len(recs)*width)
	allocs := testing.AllocsPerRun(100, func() {
		for i, rec := range recs {
			if _, err := DecodeRowSkip(dst[i*width:(i+1)*width], rec, 0); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("ten records of three strings: %v allocations, want 0", allocs)
	}
	if got := dst[9*width : 10*width].String(); got != `("user09", 9, "Berkeley", "")` {
		t.Fatalf("last record decodes to %s", got)
	}
}

// BenchmarkDecodeRow is the value layer's share of every record an
// operator reads: one decode of a 4-column record with three strings
// into a row the caller has.
func BenchmarkDecodeRow(b *testing.B) {
	rec := EncodeRow(Row{Str("user0042"), Int(42), Str("Berkeley"), Str("a bio of some thirty bytes here")})
	dst := make(Row, 4)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := DecodeRowInto(dst, rec); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEncodeDecodeRowProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		row := randomRow(r, 8)
		dec, err := DecodeRow(EncodeRow(row))
		if err != nil {
			return false
		}
		return CompareRows(row, dec) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
