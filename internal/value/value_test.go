package value

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestValueLayout pins the struct the executor's slabs are made of: every
// row pays Sizeof(Value) per column, so a fourth field is a decision, not
// a convenience.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// TestFloatIsCanonical: for floats Equal means the same I, which is what
// makes it mean the same key and the same record bytes.
func TestFloatIsCanonical(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if a, b := Float(negZero), Float(0); a != b || math.Signbit(a.Float()) {
		t.Errorf("Float(-0) = %+v, Float(0) = %+v", a, b)
	}
	payload := math.Float64frombits(0xFFF8_0000_0000_BEEF)
	if a, b := Float(payload), Float(math.NaN()); a != b || uint64(a.I) != math.Float64bits(math.NaN()) {
		t.Errorf("Float(NaN with a payload) = %+v, Float(NaN) = %+v", a, b)
	}
	for _, f := range []float64{1.5, -1.5, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.MaxFloat64} {
		if got := Float(f).Float(); got != f {
			t.Errorf("Float(%g).Float() = %g", f, got)
		}
	}
	dec, err := DecodeRow([]byte{1, byte(TypeFloat), 0x80, 0, 0, 0, 0, 0, 0, 0})
	if err != nil || dec[0] != Float(0) {
		t.Errorf("a stored -0 decodes to %+v, %v", dec, err)
	}
}

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		TypeNull:   "NULL",
		TypeBool:   "BOOLEAN",
		TypeInt:    "INT",
		TypeFloat:  "DOUBLE",
		TypeString: "VARCHAR",
		TypeBytes:  "BLOB",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", typ, got, want)
		}
	}
	if got := Type(99).String(); got != "Type(99)" {
		t.Errorf("unknown type renders as %q", got)
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() {
		t.Fatal("zero Value is not NULL")
	}
	if !Equal(v, Null()) {
		t.Fatal("zero Value != Null()")
	}
}

func TestCompareWithinTypes(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Null(), Null(), 0},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(true), 0},
		{Int(-5), Int(3), -1},
		{Int(3), Int(3), 0},
		{Int(7), Int(3), 1},
		{Float(1.5), Float(2.5), -1},
		{Float(math.Inf(-1)), Float(-1e308), -1},
		{Float(math.NaN()), Float(math.Inf(-1)), -1},
		{Float(math.NaN()), Float(math.NaN()), 0},
		{Str("a"), Str("ab"), -1},
		{Str("b"), Str("ab"), 1},
		{Str(""), Str(""), 0},
		{Bytes([]byte{1}), Bytes([]byte{1, 0}), -1},
		{Bytes(nil), Bytes(nil), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Compare(c.b, c.a); got != -c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d (antisymmetry)", c.b, c.a, got, -c.want)
		}
	}
}

func TestCompareAcrossTypes(t *testing.T) {
	ordered := []Value{Null(), Bool(true), Int(math.MaxInt64), Float(math.Inf(-1)), Str(""), Bytes(nil)}
	for i := range ordered {
		for j := range ordered {
			got := Compare(ordered[i], ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"NULL":    Null(),
		"true":    Bool(true),
		"false":   Bool(false),
		"42":      Int(42),
		"1.5":     Float(1.5),
		`"hi"`:    Str("hi"),
		"x'0102'": Bytes([]byte{1, 2}),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("%#v.String() = %q, want %q", v, got, want)
		}
	}
}

func TestRowCloneIsDeep(t *testing.T) {
	raw := []byte{1, 2, 3}
	r := Row{Str("a"), Bytes(raw)}
	c := r.Clone()
	raw[0] = 99
	if c[1].Bytes()[0] != 1 || r[1].Bytes()[0] != 1 {
		t.Fatal("Clone shares bytes payload with original")
	}
	if CompareRows(r[:1], c[:1]) != 0 {
		t.Fatal("Clone changed scalar values")
	}
}

func TestCompareRowsPrefix(t *testing.T) {
	a := Row{Int(1), Str("x")}
	b := Row{Int(1)}
	if got := CompareRows(a, b); got != 1 {
		t.Fatalf("longer row with equal prefix should sort after, got %d", got)
	}
	if got := CompareRows(b, a); got != -1 {
		t.Fatalf("prefix should sort before, got %d", got)
	}
	if got := CompareRows(Row{Int(2)}, Row{Int(1), Str("z")}); got != 1 {
		t.Fatalf("first component dominates, got %d", got)
	}
}

func TestSizePositive(t *testing.T) {
	vals := []Value{Null(), Bool(true), Int(1), Float(1), Str("hello"), Bytes(make([]byte, 10))}
	total := 0
	for _, v := range vals {
		if v.Size() <= 0 {
			t.Errorf("%v.Size() = %d, want > 0", v, v.Size())
		}
		total += v.Size()
	}
	if got := (Row(vals)).Size(); got != total {
		t.Errorf("Row.Size() = %d, want %d", got, total)
	}
}

// randomValue draws an arbitrary Value for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(6) {
	case 0:
		return Null()
	case 1:
		return Bool(r.Intn(2) == 0)
	case 2:
		return Int(r.Int63() - r.Int63())
	case 3:
		return Float(math.Float64frombits(r.Uint64()))
	case 4:
		n := r.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		return Str(string(b))
	default:
		n := r.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		return Bytes(b)
	}
}

// RandomRow draws an arbitrary Row; exported within the package for reuse
// by encode_test.go.
func randomRow(r *rand.Rand, maxLen int) Row {
	n := r.Intn(maxLen + 1)
	row := make(Row, n)
	for i := range row {
		row[i] = randomValue(r)
	}
	return row
}

func TestCompareIsTotalOrderProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	// Antisymmetry and consistency with Equal.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomValue(r), randomValue(r)
		c1, c2 := Compare(a, b), Compare(b, a)
		if c1 != -c2 {
			return false
		}
		return (c1 == 0) == Equal(a, b)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	// Transitivity on triples.
	g := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vs := []Value{randomValue(r), randomValue(r), randomValue(r)}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				for k := 0; k < 3; k++ {
					if Compare(vs[i], vs[j]) <= 0 && Compare(vs[j], vs[k]) <= 0 {
						if Compare(vs[i], vs[k]) > 0 {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(g, cfg); err != nil {
		t.Error(err)
	}
}
