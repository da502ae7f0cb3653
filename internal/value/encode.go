package value

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
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

// DecodeRow parses a record payload produced by EncodeRow.
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

// StringBytes returns the payload bytes of a record's strings and blobs:
// what decoding it writes into an arena. It walks the value headers and
// copies nothing; on a corrupt record it stops where the decoder fails,
// so it never exceeds len(b).
func StringBytes(b []byte) int {
	count, i := binary.Uvarint(b)
	if i <= 0 {
		return 0
	}
	total := 0
	// i may run past len(b) on a truncated record; the loop then ends.
	for ; count > 0 && i < len(b); count-- {
		t := Type(b[i])
		i++
		switch t {
		case TypeNull:
		case TypeBool:
			i++
		case TypeInt:
			for i < len(b) && b[i] >= 0x80 {
				i++
			}
			i++
		case TypeFloat:
			i += 8
		case TypeString, TypeBytes:
			l, n := binary.Uvarint(b[i:])
			if n <= 0 || uint64(len(b)-i-n) < l {
				return total
			}
			total += int(l)
			i += n + int(l)
		default:
			return total
		}
	}
	return total
}

// DecodeRowInto decodes a record payload produced by EncodeRow directly
// into dst[0:count], returning the number of values written. dst must be
// at least as wide as the stored row. It is the one-record DecodeRowArena:
// its own arena, sized by StringBytes, holds all of the record's strings.
func DecodeRowInto(dst Row, b []byte) (int, error) {
	var arena strings.Builder
	arena.Grow(StringBytes(b))
	return DecodeRowArena(dst, b, &arena)
}

// DecodeRowArena is DecodeRowInto for a batch of records: each string and
// blob payload is appended to arena and the value's S is sliced out of
// arena.String(), so the strings of every record decoded into one arena
// grown beforehand by their StringBytes cost one allocation between them.
// A builder's strings stay valid when it regrows, so an arena sized short
// costs an allocation, never a wrong value. A decoded string keeps the
// whole arena alive, as a row keeps its slab.
func DecodeRowArena(dst Row, b []byte, arena *strings.Builder) (int, error) {
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
		switch t {
		case TypeNull:
			dst[i] = Null()
		case TypeBool:
			if len(b) < 1 {
				return 0, fmt.Errorf("value: truncated bool")
			}
			dst[i] = Bool(b[0] != 0)
			b = b[1:]
		case TypeInt:
			x, n := binary.Varint(b)
			if n <= 0 {
				return 0, fmt.Errorf("value: corrupt int")
			}
			dst[i] = Int(x)
			b = b[n:]
		case TypeFloat:
			if len(b) < 8 {
				return 0, fmt.Errorf("value: truncated float")
			}
			dst[i] = Float(math.Float64frombits(binary.BigEndian.Uint64(b)))
			b = b[8:]
		case TypeString, TypeBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return 0, fmt.Errorf("value: corrupt %s", t)
			}
			from := arena.Len()
			arena.Write(b[n : n+int(l)])
			dst[i] = Value{T: t, S: arena.String()[from:]}
			b = b[n+int(l):]
		default:
			return 0, fmt.Errorf("value: unknown type tag %d", t)
		}
	}
	if len(b) != 0 {
		return 0, fmt.Errorf("value: %d trailing bytes after row", len(b))
	}
	return int(count), nil
}
