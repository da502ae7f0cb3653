// Package codec implements the order-preserving key encoding used for all
// key/value-store keys: primary keys, secondary index entries, and range
// scan boundaries.
//
// The central invariant, relied on by every index scan in the engine and
// property-tested in codec_test.go, is
//
//	bytes.Compare(EncodeKey(a), EncodeKey(b)) == value.CompareRows(a, b)
//
// Descending components invert their payload bytes so that a single
// ascending byte scan over the store yields rows in the requested mixed
// ASC/DESC order (used by SortedIndexJoin over composite indexes).
package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"

	"piql/internal/value"
)

// Type tags. Their byte order defines the cross-type sort order and must
// match the ordering of value.Type constants.
const (
	tagNull   byte = 0x02
	tagBool   byte = 0x03
	tagInt    byte = 0x04
	tagFloat  byte = 0x05
	tagString byte = 0x06
	tagBytes  byte = 0x07

	// String/bytes payload framing: 0x00 bytes are escaped as 0x00 0xFF
	// and the payload ends with 0x00 0x01, so that prefixes sort before
	// their extensions and no payload can escape its field.
	escByte  byte = 0x00
	escPad   byte = 0xFF
	termByte byte = 0x01
)

// Asc and Desc select the direction of a key component.
const (
	Asc  = false
	Desc = true
)

// AppendValue appends the order-preserving encoding of v to dst. If desc
// is true the component's bytes are inverted so larger values sort first.
func AppendValue(dst []byte, v value.Value, desc bool) []byte {
	start := len(dst)
	switch v.T {
	case value.TypeNull:
		dst = append(dst, tagNull)
	case value.TypeBool:
		if v.Bool() {
			dst = append(dst, tagBool, 1)
		} else {
			dst = append(dst, tagBool, 0)
		}
	case value.TypeInt:
		dst = append(dst, tagInt)
		// Flip the sign bit so negative numbers sort before positive.
		dst = binary.BigEndian.AppendUint64(dst, uint64(v.I)^(1<<63))
	case value.TypeFloat:
		dst = append(dst, tagFloat)
		dst = binary.BigEndian.AppendUint64(dst, floatSortBits(v.Float()))
	case value.TypeString:
		dst = append(dst, tagString)
		dst = appendEscaped(dst, v.S)
	case value.TypeBytes:
		dst = append(dst, tagBytes)
		dst = appendEscaped(dst, v.S)
	default:
		panic(fmt.Sprintf("codec: unknown value type %d", v.T))
	}
	if desc {
		for i := start; i < len(dst); i++ {
			dst[i] = ^dst[i]
		}
	}
	return dst
}

// Size returns the number of bytes AppendValue appends for v, in either
// direction, so a caller can size one buffer for several keys up front.
func Size(v value.Value) int {
	switch v.T {
	case value.TypeNull:
		return 1
	case value.TypeBool:
		return 2
	case value.TypeInt, value.TypeFloat:
		return 9
	case value.TypeString, value.TypeBytes:
		// The tag, the payload with each 0x00 escaped to two bytes, and the
		// two-byte terminator.
		return 1 + len(v.S) + strings.Count(v.S, "\x00") + 2
	default:
		panic(fmt.Sprintf("codec: unknown value type %d", v.T))
	}
}

func appendEscaped(dst []byte, payload string) []byte {
	for i := 0; i < len(payload); i++ {
		if b := payload[i]; b == escByte {
			dst = append(dst, escByte, escPad)
		} else {
			dst = append(dst, b)
		}
	}
	return append(dst, escByte, termByte)
}

// floatSortBits maps an IEEE-754 double onto a uint64 whose unsigned
// ordering matches the float ordering (with NaN first, matching
// value.Compare).
func floatSortBits(f float64) uint64 {
	if math.IsNaN(f) {
		return 0
	}
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		return ^bits // negative: invert everything
	}
	return bits | (1 << 63) // positive: set sign bit
}

// EncodeKey encodes a composite key. desc may be nil (all ascending) or
// must have one entry per value.
func EncodeKey(vals value.Row, desc []bool) []byte {
	if desc != nil && len(desc) != len(vals) {
		panic("codec: desc length mismatch")
	}
	dst := make([]byte, 0, 8+vals.Size())
	for i, v := range vals {
		d := false
		if desc != nil {
			d = desc[i]
		}
		dst = AppendValue(dst, v, d)
	}
	return dst
}

// DecodeKey decodes a composite key produced by EncodeKey. The caller must
// supply the same desc directions used during encoding.
func DecodeKey(key []byte, n int, desc []bool) (value.Row, error) {
	row := make(value.Row, 0, n)
	rest := key
	for i := 0; i < n; i++ {
		d := false
		if desc != nil {
			d = desc[i]
		}
		v, tail, err := decodeValue(rest, d)
		if err != nil {
			return nil, fmt.Errorf("codec: component %d: %w", i, err)
		}
		row = append(row, v)
		rest = tail
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("codec: %d trailing key bytes", len(rest))
	}
	return row, nil
}

// ComponentEnds walks a composite key without decoding it: it appends to
// dst the offset at which each of the key's len(desc) components ends.
// It accepts exactly the keys DecodeKey accepts, with the same errors,
// and allocates nothing beyond dst's growth.
func ComponentEnds(dst []int, key []byte, desc []bool) ([]int, error) {
	off := 0
	for i, d := range desc {
		n, err := componentLen(key[off:], d)
		if err != nil {
			return nil, fmt.Errorf("codec: component %d: %w", i, err)
		}
		off += n
		dst = append(dst, off)
	}
	if off != len(key) {
		return nil, fmt.Errorf("codec: %d trailing key bytes", len(key)-off)
	}
	return dst, nil
}

// GroupLen returns the length of key's group: its first two components,
// the namespace (a table's or an index's) and the leading key component,
// which together name the entity group a range pinned by equality reads.
// Each component is read in the direction its tag byte states: a DESC
// component's tag is an ascending tag's complement. ok is false for
// bytes that do not start with two well-formed components.
func GroupLen(key []byte) (n int, ok bool) { return leadingLen(key, 2) }

// NamespaceLen returns the length of key's namespace: its first
// component (a table's t:<table>, an index's x:<index>). Bytes that are
// not a codec key group by their first byte when it is no component's
// tag; otherwise the whole key is its namespace, and ok is false. So a
// namespace reported ok is shared by every key that starts with it, one
// reported !ok holds that one key alone, and either way a namespace is
// one contiguous run of keys. It allocates nothing, malformed bytes
// included.
func NamespaceLen(key []byte) (n int, ok bool) {
	if n, ok := leadingLen(key, 1); ok {
		return n, true
	}
	if len(key) > 0 && !isTag(key[0]) {
		return 1, true
	}
	return len(key), false
}

// leadingLen is the walker under GroupLen and NamespaceLen: the length of
// key's first k components, each read in the direction its tag byte
// states, and whether key starts with k well-formed ones.
func leadingLen(key []byte, k int) (n int, ok bool) {
	for range k {
		if n >= len(key) {
			return 0, false
		}
		m, why, _ := measure(key[n:], key[n] > 0x7F)
		if why != "" {
			return 0, false
		}
		n += m
	}
	return n, true
}

// isTag reports whether b is a component's tag in either direction.
func isTag(b byte) bool {
	if b > 0x7F {
		b = ^b
	}
	return b >= tagNull && b <= tagBytes
}

// componentLen returns the length of the component b starts with, or
// measure's reason as an error. measure is the only place a component is
// validated — decodeValue decodes what it measured — so the walkers and
// the decoder cannot disagree.
func componentLen(b []byte, desc bool) (int, error) {
	n, why, bits := measure(b, desc)
	switch {
	case why == "":
		return n, nil
	case strings.Contains(why, "%"):
		return 0, fmt.Errorf(why, bits)
	default:
		return 0, errors.New(why)
	}
}

// measure returns the length of the component b starts with, or why it
// is malformed: a constant text, which componentLen formats with bits
// where it has a verb. Only componentLen words the error, so a walker
// that needs no words allocates nothing.
func measure(b []byte, desc bool) (n int, why string, bits uint64) {
	if len(b) == 0 {
		return 0, "truncated key", 0
	}
	var inv byte // xor mask that un-inverts a descending component
	if desc {
		inv = 0xFF
	}
	switch tag := b[0] ^ inv; tag {
	case tagNull:
		return 1, "", 0
	case tagBool:
		if len(b) < 2 {
			return 0, "truncated bool", 0
		}
		if v := b[1] ^ inv; v > 1 {
			return 0, "bad bool 0x%02x", uint64(v)
		}
		return 2, "", 0
	case tagInt:
		if len(b) < 9 {
			return 0, "truncated int", 0
		}
		return 9, "", 0
	case tagFloat:
		if len(b) < 9 {
			return 0, "truncated float", 0
		}
		u := binary.BigEndian.Uint64(b[1:])
		if desc {
			u = ^u
		}
		if u != 0 && math.IsNaN(floatFromSortBits(u)) {
			return 0, "non-canonical NaN 0x%016x in float key", u
		}
		if u == 1<<63-1 { // what -0 would sort as; value.Float stores +0
			return 0, "negative zero in float key", 0
		}
		return 9, "", 0
	case tagString, tagBytes:
		for i := 1; ; {
			j := bytes.IndexByte(b[i:], escByte^inv)
			if j < 0 {
				return 0, "unterminated string key", 0
			}
			if i += j + 2; i > len(b) {
				return 0, "dangling escape in string key", 0
			}
			switch next := b[i-1] ^ inv; next {
			case escPad:
			case termByte:
				return i, "", 0
			default:
				return 0, "bad escape 0x%02x in string key", uint64(next)
			}
		}
	default:
		return 0, "unknown key tag 0x%02x", uint64(tag)
	}
}

func decodeValue(b []byte, desc bool) (value.Value, []byte, error) {
	n, err := componentLen(b, desc)
	if err != nil {
		return value.Value{}, nil, err
	}
	var inv byte
	var inv64 uint64
	if desc {
		inv, inv64 = 0xFF, ^uint64(0)
	}
	var v value.Value
	switch tag := b[0] ^ inv; tag {
	case tagNull:
		v = value.Null()
	case tagBool:
		v = value.Bool(b[1]^inv == 1)
	case tagInt:
		v = value.Int(int64(binary.BigEndian.Uint64(b[1:]) ^ inv64 ^ 1<<63))
	case tagFloat:
		v = value.Float(floatFromSortBits(binary.BigEndian.Uint64(b[1:]) ^ inv64))
	default: // tagString, tagBytes: both are their bytes in S
		v.T = value.TypeString
		if tag == tagBytes {
			v.T = value.TypeBytes
		}
		p := b[1 : n-2] // the escaped payload, without its terminator
		// An ascending payload without a 0x00 is stored as it reads, and
		// the conversion is its only copy.
		if desc || bytes.IndexByte(p, escByte) >= 0 {
			v.S = unescape(p, inv)
		} else {
			v.S = string(p)
		}
	}
	return v, b[n:], nil
}

// unescape undoes appendEscaped (and a descending component's inversion)
// on a payload componentLen has validated.
func unescape(p []byte, inv byte) string {
	var out strings.Builder
	out.Grow(len(p))
	for i := 0; i < len(p); i++ {
		c := p[i] ^ inv
		out.WriteByte(c)
		if c == escByte {
			i++ // the pad
		}
	}
	return out.String()
}

func floatFromSortBits(u uint64) float64 {
	if u == 0 {
		return math.NaN()
	}
	if u&(1<<63) != 0 {
		return math.Float64frombits(u &^ (1 << 63))
	}
	return math.Float64frombits(^u)
}

// PrefixEnd returns the smallest key greater than every key having the
// given prefix, or nil if no such key exists (prefix is all 0xFF). It is
// used as the exclusive upper bound of prefix range scans.
func PrefixEnd(prefix []byte) []byte {
	return AppendPrefixEnd(nil, prefix)
}

// AppendPrefixEnd appends PrefixEnd(prefix) to dst. A prefix with no end
// appends nothing, so AppendPrefixEnd(nil, prefix) is PrefixEnd(prefix),
// nil included. The end is never longer than prefix, and prefix may lie
// in dst's own backing array below len(dst).
func AppendPrefixEnd(dst, prefix []byte) []byte {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xFF {
			dst = append(dst, prefix[:i+1]...)
			dst[len(dst)-1]++
			return dst
		}
	}
	return dst
}
