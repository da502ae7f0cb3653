// Package value defines the dynamically typed values and rows that flow
// through the PIQL engine: table cells, query parameters, and key parts.
//
// Values are small immutable structs. The zero Value is NULL. Ordering
// follows key-encoding order (see internal/codec, whose
// TestCompareAgreesWithKeyOrder holds the two together): NULL < bool <
// int < float < string < bytes, with natural ordering within a type.
//
// A decoded string or blob points into the record bytes it came from
// (DecodeRowSkip), which must never be written again: a kept string
// keeps its whole record alive, for a store answer the stored envelope,
// as a kept row keeps its executor slab. That is bounded by the plan's
// tuple bound times the declared row widths.
package value

import (
	"fmt"
	"math"
	"strings"
)

// Type enumerates the runtime types a Value can hold.
type Type uint8

// Supported value types. The numeric order of the constants defines the
// cross-type sort order used by Compare and by the key codec.
const (
	TypeNull Type = iota
	TypeBool
	TypeInt
	TypeFloat
	TypeString
	TypeBytes
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeBool:
		return "BOOLEAN"
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "DOUBLE"
	case TypeString:
		return "VARCHAR"
	case TypeBytes:
		return "BLOB"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Value is a single dynamically typed datum: 32 bytes, and every row of
// every executor slab pays them per column (TestValueLayout pins the
// size). T selects which payload is meaningful: an int is I, a bool is I
// 0 or 1, a float is its IEEE-754 bits in I, a string or a blob is its
// bytes in S. Build values with the constructors — Float canonicalises
// what it packs — and read the folded payloads through Bool, Float and
// Bytes. The zero value is NULL.
type Value struct {
	T Type
	I int64
	S string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{T: TypeBool, I: 1}
	}
	return Value{T: TypeBool}
}

// Int returns a 64-bit integer value.
func Int(i int64) Value { return Value{T: TypeInt, I: i} }

// canonicalNaN is the one bit pattern a NaN is stored as: math.NaN()'s.
const canonicalNaN = 0x7FF8000000000001

// Float returns a 64-bit float value. -0 is stored as +0 and every NaN
// as one NaN, so two floats are Equal exactly when their I, and with it
// their key bytes, are the same.
func Float(f float64) Value {
	switch {
	case f == 0:
		return Value{T: TypeFloat}
	case math.IsNaN(f):
		return Value{T: TypeFloat, I: canonicalNaN}
	}
	return Value{T: TypeFloat, I: int64(math.Float64bits(f))}
}

// Str returns a string value.
func Str(s string) Value { return Value{T: TypeString, S: s} }

// Bytes returns a raw bytes value. It copies b: the value does not change
// when the caller's slice does.
func Bytes(b []byte) Value { return Value{T: TypeBytes, S: string(b)} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.T == TypeNull }

// Bool returns the payload of a boolean value.
func (v Value) Bool() bool { return v.I != 0 }

// Float returns the payload of a float value.
func (v Value) Float() float64 { return math.Float64frombits(uint64(v.I)) }

// Bytes returns a copy of the payload of a bytes value.
func (v Value) Bytes() []byte { return []byte(v.S) }

// Truthy reports whether v is the boolean true. Non-boolean values are
// never truthy; predicates in PIQL are strictly typed.
func (v Value) Truthy() bool { return v.T == TypeBool && v.I != 0 }

// String renders the value for plans, logs, and the shell.
func (v Value) String() string {
	switch v.T {
	case TypeNull:
		return "NULL"
	case TypeBool:
		if v.Bool() {
			return "true"
		}
		return "false"
	case TypeInt:
		return fmt.Sprintf("%d", v.I)
	case TypeFloat:
		return fmt.Sprintf("%g", v.Float())
	case TypeString:
		return fmt.Sprintf("%q", v.S)
	case TypeBytes:
		return fmt.Sprintf("x'%x'", v.S)
	default:
		return fmt.Sprintf("Value(%d)", uint8(v.T))
	}
}

// Compare orders a relative to b: -1, 0, or +1. Values of different types
// order by their Type constants; NULL sorts before everything.
func Compare(a, b Value) int {
	if a.T != b.T {
		if a.T < b.T {
			return -1
		}
		return 1
	}
	switch a.T {
	case TypeNull:
		return 0
	case TypeBool, TypeInt:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		default:
			return 0
		}
	case TypeFloat:
		return compareFloat(a.Float(), b.Float())
	case TypeString, TypeBytes:
		return strings.Compare(a.S, b.S)
	default:
		return 0
	}
}

func compareFloat(a, b float64) int {
	// NaN sorts before all other floats so ordering stays total.
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports whether a and b are the same value.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Size returns the approximate in-memory/wire size of the value in bytes.
// The SLO prediction model uses this as the per-tuple size β.
func (v Value) Size() int {
	switch v.T {
	case TypeNull:
		return 1
	case TypeBool:
		return 2
	case TypeInt, TypeFloat:
		return 9
	case TypeString, TypeBytes:
		return 1 + len(v.S)
	default:
		return 1
	}
}

// Row is an ordered tuple of values.
type Row []Value

// Size returns the approximate wire size of the row in bytes.
func (r Row) Size() int {
	n := 0
	for _, v := range r {
		n += v.Size()
	}
	return n
}

// Clone returns a copy of the row. Values hold no mutable memory, so
// copying them is a deep copy.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// String renders the row as a parenthesized tuple.
func (r Row) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, v := range r {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// CompareRows orders two rows lexicographically.
func CompareRows(a, b Row) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}
