package index

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"piql/internal/codec"
	"piql/internal/kvstore"
	"piql/internal/schema"
	"piql/internal/value"
)

// shapesTable has a primary key column of every key type, so the index
// shapes below carry strings with escapes, ints, floats and bools (or
// NULLs in their place) as primary-key components.
func shapesTable(t *testing.T) (*schema.Table, []*schema.Index) {
	t.Helper()
	cat := schema.NewCatalog()
	tab := &schema.Table{
		Name: "shapes",
		Columns: []schema.Column{
			{Name: "a", Type: value.TypeString},
			{Name: "b", Type: value.TypeInt},
			{Name: "c", Type: value.TypeFloat},
			{Name: "d", Type: value.TypeBool},
			{Name: "s", Type: value.TypeString},
			{Name: "n", Type: value.TypeInt},
		},
		PrimaryKey: []string{"a", "b", "c", "d"},
	}
	if err := cat.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	f := func(col string, flags ...string) schema.IndexField {
		fl := strings.Join(flags, " ")
		return schema.IndexField{Column: col, Desc: strings.Contains(fl, "desc"), Token: strings.Contains(fl, "token")}
	}
	var ixs []*schema.Index
	for _, shape := range []struct {
		name   string
		fields []schema.IndexField
	}{
		{"asc", []schema.IndexField{f("s"), f("a"), f("b"), f("c"), f("d")}},
		{"all_desc", []schema.IndexField{f("s", "desc"), f("a", "desc"), f("b", "desc"), f("c", "desc"), f("d", "desc")}},
		{"token_desc", []schema.IndexField{f("s", "token"), f("n", "desc"), f("a"), f("b", "desc"), f("c"), f("d", "desc")}},
		{"split_pk", []schema.IndexField{f("b"), f("a", "desc"), f("s"), f("d"), f("c", "desc")}},
	} {
		ix, err := cat.AddIndex(&schema.Index{Name: shape.name, Table: tab.Name, Fields: shape.fields})
		if err != nil {
			t.Fatal(err)
		}
		ixs = append(ixs, ix)
	}
	return tab, ixs
}

func randomShapesRow(r *rand.Rand) value.Row {
	str := func() value.Value {
		b := make([]byte, r.Intn(8))
		for i := range b {
			b[i] = []byte{0x00, 0x01, 0xFF, 0xFE, 'a', 'z'}[r.Intn(6)]
		}
		return value.Str(string(b))
	}
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1), -1.5, 2.25, math.MaxFloat64}
	row := value.Row{
		str(),
		value.Int(r.Int63() - r.Int63()),
		value.Float(floats[r.Intn(len(floats))]),
		value.Bool(r.Intn(2) == 0),
		value.Str(fmt.Sprintf("w%d w%d %c", r.Intn(5), r.Intn(5), 'a'+rune(r.Intn(26)))),
		value.Int(int64(r.Intn(100)) - 50),
	}
	if i := r.Intn(12); i < 4 {
		row[i] = value.Null() // a NULL key column is a component like any other
	}
	return row
}

// refRecordKey is the decode-and-re-encode dereference AppendRecordKey
// replaced, kept as the reference: decode every component of the entry,
// pick the primary key values out by column name, encode them again.
func refRecordKey(ix *schema.Index, t *schema.Table, key []byte) ([]byte, error) {
	desc, cols := []bool{false}, []string{""}
	for _, token := range []bool{true, false} {
		for _, f := range ix.Fields {
			if f.Token != token {
				continue
			}
			desc = append(desc, f.Desc)
			if token {
				cols = append(cols, "") // a word of the column, not the column
			} else {
				cols = append(cols, strings.ToLower(f.Column))
			}
		}
	}
	vals, err := codec.DecodeKey(key, len(desc), desc)
	if err != nil {
		return nil, err
	}
	pk := make(value.Row, len(t.PrimaryKey))
next:
	for i, col := range t.PrimaryKey {
		for c := len(cols) - 1; c > 0; c-- {
			if cols[c] == strings.ToLower(col) {
				pk[i] = vals[c]
				continue next
			}
		}
		return nil, fmt.Errorf("no %s", col)
	}
	return RecordKeyFromPK(t, pk), nil
}

// TestAppendRecordKeyDifferential: over four index shapes and random
// rows, the transcoded entry key is the row's record key and agrees with
// the decoding reference; every truncation and every single-byte flip of
// an entry yields an error exactly when the reference errs, the same key
// when it does not, and never a panic.
func TestAppendRecordKeyDifferential(t *testing.T) {
	tab, ixs := shapesTable(t)
	r := rand.New(rand.NewSource(19))
	agree := func(ix *schema.Index, key []byte, what string) {
		got, err := AppendRecordKey(nil, ix, tab, key)
		want, rerr := refRecordKey(ix, tab, key)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("%s: %s of %x: transcoder says %v, reference says %v", ix.Name, what, key, err, rerr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("%s: %s of %x: transcoded %x, reference %x", ix.Name, what, key, got, want)
		}
	}
	for n := 0; n < 5000; n++ {
		row := randomShapesRow(r)
		want := RecordKey(tab, row)
		for _, ix := range ixs {
			keys := EntryKeys(ix, tab, row)
			if len(keys) == 0 {
				t.Fatalf("%s: row %v has no entry", ix.Name, row)
			}
			for _, key := range keys {
				got, err := AppendRecordKey(make([]byte, 0, len(RecordPrefix(tab))+len(key)), ix, tab, key)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s: row %v: entry %x -> %x, %v; record key is %x", ix.Name, row, key, got, err, want)
				}
				if cap(got) != len(RecordPrefix(tab))+len(key) {
					t.Fatalf("%s: record key of %d bytes outgrew prefix %d + entry %d", ix.Name, len(got), len(RecordPrefix(tab)), len(key))
				}
				agree(ix, key, "entry")
				if n >= 150 {
					continue
				}
				for cut := 0; cut < len(key); cut++ {
					agree(ix, key[:cut], "truncation")
				}
				for i := range key {
					flipped := append([]byte{}, key...)
					flipped[i] ^= byte(1 << r.Intn(8))
					agree(ix, flipped, "flip")
				}
			}
		}
	}
}

// TestAppendRecordKeyErrors: each way an entry key can be unusable is an
// error naming the index, with the text the decoding path gave it.
func TestAppendRecordKeyErrors(t *testing.T) {
	cat, tab := thoughtsTable(t)
	add := func(name string, fields ...schema.IndexField) *schema.Index {
		ix, err := cat.AddIndex(&schema.Index{Name: name, Table: tab.Name, Fields: fields})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	ix := add("by_text", schema.IndexField{Column: "text"}, schema.IndexField{Column: "owner"}, schema.IndexField{Column: "timestamp", Desc: true})
	noPK := add("text_only", schema.IndexField{Column: "text"}, schema.IndexField{Column: "owner"})
	row := value.Row{value.Str("ann"), value.Int(5), value.Str("hi")}
	good := EntryKeys(ix, tab, row)[0]
	ns := len(IndexPrefix(ix))
	patch := func(at int, b ...byte) []byte {
		k := append([]byte{}, good...)
		copy(k[at:], b)
		return k
	}
	for _, c := range []struct {
		name string
		ix   *schema.Index
		key  []byte
		want string
	}{
		{"truncated entry", ix, good[:len(good)-3], "index by_text: codec: component 3: truncated int"},
		{"cut after the namespace", ix, good[:ns], "index by_text: codec: component 1: truncated key"},
		{"unterminated string", ix, good[:ns+2], "index by_text: codec: component 1: unterminated string key"},
		{"bad escape", ix, patch(ns+3, 0x00, 0x55), "index by_text: codec: component 1: bad escape 0x55 in string key"},
		{"unknown tag", ix, patch(ns, 0x63), "index by_text: codec: component 1: unknown key tag 0x63"},
		{"trailing bytes", ix, append(append([]byte{}, good...), 0x02), "index by_text: codec: 1 trailing key bytes"},
		{"non-0/1 bool", ix, append(good[:len(good)-9:len(good)-9], ^byte(0x03), ^byte(0x02)), "index by_text: codec: component 3: bad bool 0x02"},
		{"non-canonical NaN", ix, append(good[:len(good)-9:len(good)-9], ^byte(0x05), 0x00, 0x07, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFE),
			"index by_text: codec: component 3: non-canonical NaN 0xfff8000000000001 in float key"},
	} {
		got, err := AppendRecordKey(nil, c.ix, tab, c.key)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: got key %x, error %v; want error %q", c.name, got, err, c.want)
		}
	}
	// An index declared without a primary-key column is completed by the
	// catalog, so its entries still name their record.
	got, err := AppendRecordKey(nil, noPK, tab, EntryKeys(noPK, tab, row)[0])
	if err != nil || !bytes.Equal(got, RecordKey(tab, row)) {
		t.Errorf("index declared without timestamp: got key %x, error %v; want %x", got, err, RecordKey(tab, row))
	}
}

// TestEntryDangling drives the garbage collector's per-entry verdict
// through an index that holds the primary key out of order and
// descending: live, record gone, record no longer producing the entry,
// and an entry that cannot be read at all (an error — never "dangling",
// which would delete it).
func TestEntryDangling(t *testing.T) {
	cat, tab := thoughtsTable(t)
	ix, err := cat.AddIndex(&schema.Index{Name: "by_ts", Table: tab.Name,
		Fields: []schema.IndexField{{Column: "timestamp", Desc: true}, {Column: "text"}, {Column: "owner", Desc: true}}})
	if err != nil {
		t.Fatal(err)
	}
	cl := kvstore.New(kvstore.Config{Nodes: 2, ReplicationFactor: 1, Seed: 19}, nil).NewClient(nil)
	m := NewMaintainer(cat)
	row := value.Row{value.Str("a\x00nn"), value.Int(-42), value.Str("hello")}
	if err := m.Insert(cl, tab, row); err != nil {
		t.Fatal(err)
	}
	live := EntryKeys(ix, tab, row)[0]
	stale := EntryKeys(ix, tab, value.Row{row[0], row[1], value.Str("an earlier text")})[0]
	gone := EntryKeys(ix, tab, value.Row{value.Str("bob"), value.Int(7), value.Str("hello")})[0]
	for _, c := range []struct {
		name     string
		key      []byte
		dangling bool
	}{
		{"live entry", live, false},
		{"entry of a value the record no longer has", stale, true},
		{"entry of a record that is gone", gone, true},
	} {
		got, err := m.entryDangling(cl, ix, tab, c.key)
		if err != nil || got != c.dangling {
			t.Errorf("%s: dangling = %v, %v; want %v", c.name, got, err, c.dangling)
		}
	}
	if got, err := m.entryDangling(cl, ix, tab, live[:len(live)-1]); err == nil || got {
		t.Errorf("unreadable entry: dangling = %v, %v; want an error", got, err)
	}
	if err := cl.Delete(RecordKey(tab, row)); err != nil {
		t.Fatal(err)
	}
	if got, err := m.entryDangling(cl, ix, tab, live); err != nil || !got {
		t.Errorf("after the record is deleted: dangling = %v, %v; want true", got, err)
	}
}
