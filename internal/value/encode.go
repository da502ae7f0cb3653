package value

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// EncodeRow serializes a row into a compact binary record payload. The
// format is not order-preserving (see internal/codec for key encoding);
// it is the value format stored under a key/value-store key.
//
// Layout: uvarint(count) then per value: one type byte followed by the
// payload (bool: 1 byte; int: varint; float: 8 bytes; string/bytes:
// uvarint length + raw bytes).
func EncodeRow(r Row) []byte {
	return AppendRow(make([]byte, 0, 16+r.Size()), r)
}

// AppendRow appends EncodeRow(r) to buf and returns it.
func AppendRow(buf []byte, r Row) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(r)))
	for _, v := range r {
		buf = append(buf, byte(v.T))
		switch v.T {
		case TypeNull:
		case TypeBool:
			buf = append(buf, byte(v.I))
		case TypeInt:
			buf = binary.AppendVarint(buf, v.I)
		case TypeFloat:
			buf = binary.BigEndian.AppendUint64(buf, uint64(v.I))
		case TypeString, TypeBytes:
			buf = binary.AppendUvarint(buf, uint64(len(v.S)))
			buf = append(buf, v.S...)
		}
	}
	return buf
}

// DecodeRow parses a record payload produced by EncodeRow. Its strings
// and blobs point into b (see DecodeRowSkip).
func DecodeRow(b []byte) (Row, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("value: corrupt row header")
	}
	if count > uint64(len(b)-n)+1 {
		return nil, fmt.Errorf("value: row count %d exceeds payload", count)
	}
	row := make(Row, count)
	if _, err := DecodeRowInto(row, b); err != nil {
		return nil, err
	}
	return row, nil
}

// DecodeRowInto decodes a record payload produced by EncodeRow directly
// into dst[0:count], returning the number of values written. dst must be
// at least as wide as the stored row. It is DecodeRowSkip with nothing
// skipped.
func DecodeRowInto(dst Row, b []byte) (int, error) {
	return DecodeRowSkip(dst, b, 0)
}

// DecodeRowSkip is the record decoder. A decoded string or blob is not
// copied: its S points into b, so b must never be written again while a
// value decoded from it lives, and a kept string keeps all of b alive.
// The store's answers meet that: a stored envelope is never written
// after it is stored, a write stores a new one.
//
// Value i is left out when bit i of skip is set (a value past the 64th is
// never left out): its cell of dst is not written. It is still read and
// checked as every other value is, so a record is refused, with the same
// error, whatever the mask. The count returned is the record's whole
// count.
func DecodeRowSkip(dst Row, b []byte, skip uint64) (int, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, fmt.Errorf("value: corrupt row header")
	}
	b = b[n:]
	if count > uint64(len(b))+1 {
		return 0, fmt.Errorf("value: row count %d exceeds payload", count)
	}
	if count > uint64(len(dst)) {
		return 0, fmt.Errorf("value: row has %d values, destination holds %d", count, len(dst))
	}
	for i := 0; i < int(count); i++ {
		if len(b) == 0 {
			return 0, fmt.Errorf("value: truncated row at value %d", i)
		}
		t := Type(b[0])
		b = b[1:]
		keep := skip>>i&1 == 0
		var v Value
		switch t {
		case TypeNull:
		case TypeBool:
			if len(b) < 1 {
				return 0, fmt.Errorf("value: truncated bool")
			}
			v = Bool(b[0] != 0)
			b = b[1:]
		case TypeInt:
			x, n := binary.Varint(b)
			if n <= 0 {
				return 0, fmt.Errorf("value: corrupt int")
			}
			v = Int(x)
			b = b[n:]
		case TypeFloat:
			if len(b) < 8 {
				return 0, fmt.Errorf("value: truncated float")
			}
			v = Float(math.Float64frombits(binary.BigEndian.Uint64(b)))
			b = b[8:]
		case TypeString, TypeBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return 0, fmt.Errorf("value: corrupt %s", t)
			}
			if keep {
				v = Value{T: t, S: alias(b[n : n+int(l)])}
			}
			b = b[n+int(l):]
		default:
			return 0, fmt.Errorf("value: unknown type tag %d", t)
		}
		if keep {
			dst[i] = v
		}
	}
	if len(b) != 0 {
		return 0, fmt.Errorf("value: %d trailing bytes after row", len(b))
	}
	return int(count), nil
}

// alias returns b's bytes as a string without copying them. An empty b
// is the empty string: &b[0] would lie past b, maybe in the next object.
func alias(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}
