// Package index owns the physical storage layout of PIQL data in the
// key/value store — record keys and secondary index entries — and the
// write-path maintenance protocol of Section 7.2, one routine for an
// insert, an update and a delete: index entries are put before the
// record and stale entries deleted after, so a crash leaves at worst
// dangling index entries (never missing ones); cardinality constraints
// are enforced with a count-range check after the record is written, by
// an insert or by an update that moves the row into another group;
// uniqueness uses test-and-set.
package index

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"piql/internal/codec"
	"piql/internal/core"
	"piql/internal/schema"
	"piql/internal/value"
)

// Key namespaces. Records and index entries live in disjoint regions of
// the key space, both prefixed by a string component so the cluster's
// range partitioning keeps each table/index section contiguous.
const (
	recordNS = "t:"
	indexNS  = "x:"
)

// Tables and indexes are immutable once registered in a catalog (shared
// across snapshots and compiled plans), so their namespace prefixes are
// computed once and cached by identity. Cached slices are capacity-
// clipped: appending to one always reallocates, so callers can extend a
// returned prefix into a full key without clobbering the cache.
var (
	recordPrefixCache sync.Map // *schema.Table -> []byte
	indexPrefixCache  sync.Map // *schema.Index -> []byte
)

// RecordPrefix returns the key prefix of all records of a table.
func RecordPrefix(t *schema.Table) []byte {
	if p, ok := recordPrefixCache.Load(t); ok {
		return p.([]byte)
	}
	p := codec.EncodeKey(value.Row{value.Str(recordNS + strings.ToLower(t.Name))}, nil)
	p = p[:len(p):len(p)]
	recordPrefixCache.Store(t, p)
	return p
}

// RecordKey builds the storage key of the row's record: the table
// namespace followed by the encoded primary key values.
func RecordKey(t *schema.Table, row value.Row) []byte {
	var buf [4]value.Value // the key's values stay on the stack for any key this wide
	pk := buf[:0]
	for _, col := range t.PrimaryKey {
		pk = append(pk, row[t.ColumnIndex(col)])
	}
	return RecordKeyFromPK(t, pk)
}

// RecordKeyFromPK builds a record key from primary key values directly,
// in one allocation of the key's exact size: the store keeps the key.
func RecordKeyFromPK(t *schema.Table, pk value.Row) []byte {
	prefix := RecordPrefix(t)
	n := len(prefix)
	for _, v := range pk {
		n += codec.Size(v)
	}
	key := append(make([]byte, 0, n), prefix...)
	for _, v := range pk {
		key = codec.AppendValue(key, v, false)
	}
	return key
}

// IndexPrefix returns the key prefix of all entries of a secondary index.
func IndexPrefix(ix *schema.Index) []byte {
	if p, ok := indexPrefixCache.Load(ix); ok {
		return p.([]byte)
	}
	p := codec.EncodeKey(value.Row{value.Str(indexNS + strings.ToLower(ix.Name))}, nil)
	p = p[:len(p):len(p)]
	indexPrefixCache.Store(ix, p)
	return p
}

// EntryKeys builds the index entry keys a row contributes to ix. Plain
// indexes produce exactly one entry; a tokenized leading field produces
// one entry per distinct token of the column text (the inverted
// full-text index of Section 7.3).
func EntryKeys(ix *schema.Index, t *schema.Table, row value.Row) [][]byte {
	return appendEntryKeys(nil, ix, t, row)
}

// appendEntryKeys appends EntryKeys(ix, t, row) to dst.
func appendEntryKeys(dst [][]byte, ix *schema.Index, t *schema.Table, row value.Row) [][]byte {
	i := slices.IndexFunc(ix.Fields, func(f schema.IndexField) bool { return f.Token })
	if i < 0 {
		return append(dst, entryKey(ix, row, value.Value{}))
	}
	toks := core.Tokenize(row[t.ColumnIndex(ix.Fields[i].Column)].S)
	seen := make(map[string]bool, len(toks))
	for _, tok := range toks {
		if seen[tok] {
			continue
		}
		seen[tok] = true
		dst = append(dst, entryKey(ix, row, value.Str(tok)))
	}
	return dst
}

// entryKey builds one entry key of ix in one allocation of its exact
// size, the store keeping the key: the namespace, then each component of
// the entry layout, tok standing for the token field's.
func entryKey(ix *schema.Index, row value.Row, tok value.Value) []byte {
	lay := ix.EntryLayout()
	prefix := IndexPrefix(ix)
	n := len(prefix)
	for _, c := range lay.Column[1:] {
		n += codec.Size(component(row, c, tok))
	}
	key := append(make([]byte, 0, n), prefix...)
	for i, c := range lay.Column[1:] {
		key = codec.AppendValue(key, component(row, c, tok), lay.Desc[1+i])
	}
	return key
}

// component is the value an entry component of column c carries: the
// row's, or tok for the token (c < 0 past the namespace).
func component(row value.Row, c int, tok value.Value) value.Value {
	if c < 0 {
		return tok
	}
	return row[c]
}

// AppendRecordKey appends to dst the key of the record a secondary index
// entry points at. Nothing is decoded: EntryKeys and RecordKey encode a
// primary-key column with the same codec.AppendValue, so the entry's
// components are walked (with every check decoding them would make) and
// the primary-key ones copied, un-inverted where the index holds them
// descending. The result is never longer than RecordPrefix(t) plus the
// entry key.
func AppendRecordKey(dst []byte, ix *schema.Index, t *schema.Table, entryKey []byte) ([]byte, error) {
	lay := ix.EntryLayout()
	var buf [16]int // component ends stay on the stack for any index this narrow
	ends, err := codec.ComponentEnds(buf[:0], entryKey, lay.Desc)
	if err != nil {
		return nil, fmt.Errorf("index %s: %w", ix.Name, err)
	}
	dst = append(dst, RecordPrefix(t)...)
	for _, c := range lay.PK {
		from := len(dst)
		dst = append(dst, entryKey[ends[c-1]:ends[c]]...) // c >= 1: component 0 is the namespace
		if lay.Desc[c] {
			for j := from; j < len(dst); j++ {
				dst[j] = ^dst[j]
			}
		}
	}
	return dst, nil
}

// ScanPrefix builds the scan prefix for an index access: namespace, then
// the given leading values encoded with the index's field directions.
// For tokenized indexes the first value is the token.
func ScanPrefix(ix *schema.Index, leading value.Row) []byte {
	key := IndexPrefix(ix)
	desc := ix.EntryLayout().Desc[1:] // past the namespace
	for i, v := range leading {
		key = codec.AppendValue(key, v, desc[i])
	}
	return key
}

// NormalizeTokens lower-cases the leading token value of a scan prefix,
// so CONTAINS lookups match the tokenizer's casing regardless of how the
// search word was supplied. Non-token indexes are untouched.
func NormalizeTokens(ix *schema.Index, leading value.Row) {
	for _, f := range ix.Fields {
		if !f.Token {
			continue
		}
		// The token component is always encoded first.
		if len(leading) > 0 && leading[0].T == value.TypeString {
			toks := core.Tokenize(leading[0].S)
			if len(toks) > 0 {
				leading[0] = value.Str(toks[0])
			} else {
				leading[0] = value.Str("")
			}
		}
		return
	}
}

// RowFromCoveringEntry reconstructs a full table row from an entry of a
// covering index — one whose non-token fields include every column of
// the table — writing the columns into dest starting at offset. The
// cost-based baseline's unbounded scans read rows this way without a
// dereference round trip.
func RowFromCoveringEntry(ix *schema.Index, key []byte, dest value.Row, offset int) error {
	lay := ix.EntryLayout()
	if lay.Uncovered != "" {
		return fmt.Errorf("index %s does not cover column %s", ix.Name, lay.Uncovered)
	}
	vals, err := codec.DecodeKey(key, len(lay.Desc), lay.Desc)
	if err != nil {
		return fmt.Errorf("index %s: %w", ix.Name, err)
	}
	for i, c := range lay.Column {
		if c >= 0 {
			dest[offset+c] = vals[i]
		}
	}
	return nil
}
