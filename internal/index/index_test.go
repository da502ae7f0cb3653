package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"piql/internal/schema"
	"piql/internal/value"
)

func thoughtsTable(t testing.TB) (*schema.Catalog, *schema.Table) {
	t.Helper()
	cat := schema.NewCatalog()
	tab := &schema.Table{
		Name: "thoughts",
		Columns: []schema.Column{
			{Name: "owner", Type: value.TypeString, MaxLen: 20},
			{Name: "timestamp", Type: value.TypeInt},
			{Name: "text", Type: value.TypeString, MaxLen: 140},
		},
		PrimaryKey: []string{"owner", "timestamp"},
	}
	if err := cat.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	return cat, tab
}

func TestRecordKeyOrdering(t *testing.T) {
	_, tab := thoughtsTable(t)
	row := func(owner string, ts int64) value.Row {
		return value.Row{value.Str(owner), value.Int(ts), value.Str("x")}
	}
	k1 := RecordKey(tab, row("ann", 5))
	k2 := RecordKey(tab, row("ann", 9))
	k3 := RecordKey(tab, row("bob", 1))
	if !(bytes.Compare(k1, k2) < 0 && bytes.Compare(k2, k3) < 0) {
		t.Fatal("record keys out of order")
	}
	// Prefix containment: all of ann's records under her prefix.
	prefix := RecordPrefix(tab)
	if !bytes.HasPrefix(k1, prefix) {
		t.Fatal("record key missing table prefix")
	}
	if !bytes.Equal(k1, RecordKeyFromPK(tab, value.Row{value.Str("ann"), value.Int(5)})) {
		t.Fatal("RecordKeyFromPK mismatch")
	}
}

func TestEntryKeysAndDecode(t *testing.T) {
	cat, tab := thoughtsTable(t)
	ix, err := cat.AddIndex(&schema.Index{
		Name:  "by_owner_ts_desc",
		Table: "thoughts",
		Fields: []schema.IndexField{
			{Column: "owner"},
			{Column: "timestamp", Desc: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	row := value.Row{value.Str("ann"), value.Int(42), value.Str("hello")}
	keys := EntryKeys(ix, tab, row)
	if len(keys) != 1 {
		t.Fatalf("entries = %d", len(keys))
	}
	rkey, err := AppendRecordKey(nil, ix, tab, keys[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rkey, RecordKey(tab, row)) {
		t.Fatalf("record key from entry = %q, want %q", rkey, RecordKey(tab, row))
	}
	// DESC component: larger timestamps sort earlier.
	later := EntryKeys(ix, tab, value.Row{value.Str("ann"), value.Int(100), value.Str("x")})[0]
	if bytes.Compare(later, keys[0]) >= 0 {
		t.Fatal("DESC timestamp did not invert entry order")
	}
}

func TestTokenEntryKeys(t *testing.T) {
	cat, tab := thoughtsTable(t)
	ix, err := cat.AddIndex(&schema.Index{
		Name:  "ft",
		Table: "thoughts",
		Fields: []schema.IndexField{
			{Column: "text", Token: true},
			{Column: "owner"},
			{Column: "timestamp"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	row := value.Row{value.Str("ann"), value.Int(7), value.Str("The quick brown fox the QUICK")}
	keys := EntryKeys(ix, tab, row)
	// Distinct lower-cased tokens: the, quick, brown, fox.
	if len(keys) != 4 {
		t.Fatalf("token entries = %d, want 4", len(keys))
	}
	for _, k := range keys {
		rkey, err := AppendRecordKey(nil, ix, tab, k)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rkey, RecordKey(tab, row)) {
			t.Fatalf("record key from token entry = %q, want %q", rkey, RecordKey(tab, row))
		}
		if !bytes.HasPrefix(k, IndexPrefix(ix)) {
			t.Fatal("entry outside index prefix")
		}
	}
	// ScanPrefix for one token selects only that token's entries.
	prefix := ScanPrefix(ix, value.Row{value.Str("quick")})
	matches := 0
	for _, k := range keys {
		if bytes.HasPrefix(k, prefix) {
			matches++
		}
	}
	if matches != 1 {
		t.Fatalf("token prefix matched %d entries", matches)
	}
}

func TestNormalizeTokens(t *testing.T) {
	cat, tab := thoughtsTable(t)
	ix, _ := cat.AddIndex(&schema.Index{
		Name:   "ft2",
		Table:  tab.Name,
		Fields: []schema.IndexField{{Column: "text", Token: true}, {Column: "owner"}, {Column: "timestamp"}},
	})
	leading := value.Row{value.Str("QuIcK")}
	NormalizeTokens(ix, leading)
	if leading[0].S != "quick" {
		t.Fatalf("normalized = %q", leading[0].S)
	}
	// Non-token index untouched.
	plain, _ := cat.AddIndex(&schema.Index{Name: "p", Table: tab.Name,
		Fields: []schema.IndexField{{Column: "owner"}, {Column: "timestamp"}}})
	leading = value.Row{value.Str("MiXeD")}
	NormalizeTokens(plain, leading)
	if leading[0].S != "MiXeD" {
		t.Fatal("non-token index value was modified")
	}
}

// TestEntryDecodeProperty: AppendRecordKey turns the entry EntryKeys built
// for a random row into that row's RecordKey, whatever the order and
// direction in which the index holds the primary key columns.
func TestEntryDecodeProperty(t *testing.T) {
	cat, tab := thoughtsTable(t)
	ixAsc, _ := cat.AddIndex(&schema.Index{Name: "pa", Table: tab.Name,
		Fields: []schema.IndexField{{Column: "timestamp"}, {Column: "owner"}}})
	ixDesc, _ := cat.AddIndex(&schema.Index{Name: "pd", Table: tab.Name,
		Fields: []schema.IndexField{{Column: "timestamp", Desc: true}, {Column: "owner", Desc: true}}})
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		row := value.Row{
			value.Str(fmt.Sprintf("u%d", r.Intn(1000))),
			value.Int(r.Int63n(1e9)),
			value.Str("body"),
		}
		for _, ix := range []*schema.Index{ixAsc, ixDesc} {
			keys := EntryKeys(ix, tab, row)
			if len(keys) != 1 {
				return false
			}
			rkey, err := AppendRecordKey(nil, ix, tab, keys[0])
			if err != nil || !bytes.Equal(rkey, RecordKey(tab, row)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRowFromCoveringEntry(t *testing.T) {
	cat, tab := thoughtsTable(t)
	cover, err := cat.AddIndex(&schema.Index{Name: "cov", Table: tab.Name,
		Fields: []schema.IndexField{{Column: "text"}, {Column: "owner"}, {Column: "timestamp"}}})
	if err != nil {
		t.Fatal(err)
	}
	row := value.Row{value.Str("ann"), value.Int(5), value.Str("covered")}
	key := EntryKeys(cover, tab, row)[0]
	dest := make(value.Row, 3)
	if err := RowFromCoveringEntry(cover, key, dest, 0); err != nil {
		t.Fatal(err)
	}
	if value.CompareRows(dest, row) != 0 {
		t.Fatalf("reconstructed = %v, want %v", dest, row)
	}
	// Non-covering index errors.
	partial, _ := cat.AddIndex(&schema.Index{Name: "part", Table: tab.Name,
		Fields: []schema.IndexField{{Column: "owner"}, {Column: "timestamp"}}})
	pkey := EntryKeys(partial, tab, row)[0]
	if err := RowFromCoveringEntry(partial, pkey, make(value.Row, 3), 0); err == nil {
		t.Fatal("non-covering index accepted")
	}
}
