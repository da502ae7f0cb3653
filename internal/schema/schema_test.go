package schema

import (
	"strings"
	"testing"

	"piql/internal/value"
)

func users() *Table {
	return &Table{
		Name: "users",
		Columns: []Column{
			{Name: "username", Type: value.TypeString, MaxLen: 20},
			{Name: "age", Type: value.TypeInt},
			{Name: "bio", Type: value.TypeString},
		},
		PrimaryKey: []string{"username"},
	}
}

func TestAddTableAndLookup(t *testing.T) {
	c := NewCatalog()
	if err := c.AddTable(users()); err != nil {
		t.Fatal(err)
	}
	tab := c.Table("USERS") // case-insensitive
	if tab == nil || tab.ColumnIndex("UserName") != 0 || tab.ColumnIndex("nope") != -1 {
		t.Fatalf("lookup failed: %+v", tab)
	}
	if tab.Column("age").Type != value.TypeInt {
		t.Fatal("column lookup failed")
	}
	if len(c.Tables()) != 1 {
		t.Fatal("Tables() wrong")
	}
	// The primary index is auto-registered.
	ixs := c.Indexes("users")
	if len(ixs) != 1 || !ixs[0].Primary {
		t.Fatalf("primary index missing: %v", ixs)
	}
}

func TestAddTableValidation(t *testing.T) {
	cases := []struct {
		name string
		tab  *Table
	}{
		{"empty name", &Table{}},
		{"no columns", &Table{Name: "t", PrimaryKey: []string{"a"}}},
		{"no pk", &Table{Name: "t", Columns: []Column{{Name: "a", Type: value.TypeInt}}}},
		{"bad pk col", &Table{Name: "t", Columns: []Column{{Name: "a", Type: value.TypeInt}}, PrimaryKey: []string{"b"}}},
		{"dup column", &Table{Name: "t", Columns: []Column{{Name: "a", Type: value.TypeInt}, {Name: "A", Type: value.TypeInt}}, PrimaryKey: []string{"a"}}},
		{"bad fk col", &Table{Name: "t", Columns: []Column{{Name: "a", Type: value.TypeInt}}, PrimaryKey: []string{"a"},
			ForeignKeys: []ForeignKey{{Columns: []string{"x"}, RefTable: "t"}}}},
		{"fk unknown table", &Table{Name: "t", Columns: []Column{{Name: "a", Type: value.TypeInt}}, PrimaryKey: []string{"a"},
			ForeignKeys: []ForeignKey{{Columns: []string{"a"}, RefTable: "zzz"}}}},
		{"card zero", &Table{Name: "t", Columns: []Column{{Name: "a", Type: value.TypeInt}}, PrimaryKey: []string{"a"},
			Cardinalities: []Cardinality{{Limit: 0, Columns: []string{"a"}}}}},
		{"card no cols", &Table{Name: "t", Columns: []Column{{Name: "a", Type: value.TypeInt}}, PrimaryKey: []string{"a"},
			Cardinalities: []Cardinality{{Limit: 5}}}},
		{"card bad col", &Table{Name: "t", Columns: []Column{{Name: "a", Type: value.TypeInt}}, PrimaryKey: []string{"a"},
			Cardinalities: []Cardinality{{Limit: 5, Columns: []string{"b"}}}}},
		{"card col twice", &Table{Name: "t", Columns: []Column{{Name: "a", Type: value.TypeInt}, {Name: "b", Type: value.TypeInt}}, PrimaryKey: []string{"a"},
			Cardinalities: []Cardinality{{Limit: 5, Columns: []string{"b", "B"}}}}},
	}
	for _, c := range cases {
		cat := NewCatalog()
		if err := cat.AddTable(c.tab); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// Duplicate table.
	cat := NewCatalog()
	if err := cat.AddTable(users()); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(users()); err == nil {
		t.Error("duplicate table accepted")
	}
}

func TestCardinalityFor(t *testing.T) {
	tab := &Table{
		Name: "subs",
		Columns: []Column{
			{Name: "owner", Type: value.TypeString},
			{Name: "target", Type: value.TypeString},
			{Name: "kind", Type: value.TypeString},
		},
		PrimaryKey: []string{"owner", "target"},
		Cardinalities: []Cardinality{
			{Limit: 100, Columns: []string{"owner"}},
			{Limit: 40, Columns: []string{"owner", "kind"}},
		},
	}
	c := NewCatalog()
	if err := c.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	if got := tab.CardinalityFor([]string{"owner", "target"}); got != 1 {
		t.Errorf("full PK coverage = %d, want 1", got)
	}
	if got := tab.CardinalityFor([]string{"owner"}); got != 100 {
		t.Errorf("owner = %d, want 100", got)
	}
	if got := tab.CardinalityFor([]string{"KIND", "OWNER"}); got != 40 {
		t.Errorf("owner+kind picks tightest = %d, want 40", got)
	}
	if got := tab.CardinalityFor([]string{"target"}); got != 0 {
		t.Errorf("target = %d, want 0", got)
	}
}

func TestIndexValidationAndDedup(t *testing.T) {
	c := NewCatalog()
	if err := c.AddTable(users()); err != nil {
		t.Fatal(err)
	}
	ix1, err := c.AddIndex(&Index{Name: "a", Table: "users", Fields: []IndexField{{Column: "bio", Token: true}, {Column: "username"}}})
	if err != nil {
		t.Fatal(err)
	}
	// Structural duplicate returns the canonical instance.
	ix2, err := c.AddIndex(&Index{Name: "b", Table: "users", Fields: []IndexField{{Column: "BIO", Token: true}, {Column: "USERNAME"}}})
	if err != nil {
		t.Fatal(err)
	}
	if ix1 != ix2 {
		t.Error("structural duplicate not deduplicated")
	}
	if len(c.Indexes("users")) != 2 { // primary + one secondary
		t.Errorf("indexes = %v", c.Indexes("users"))
	}
	// An index that leaves out a primary-key column is completed with
	// it, so each row makes an entry of its own, and it is a structural
	// duplicate of the index that names the column.
	ix3, err := c.AddIndex(&Index{Name: "c", Table: "users", Fields: []IndexField{{Column: "age"}}})
	if err != nil {
		t.Fatal(err)
	}
	ix4, err := c.AddIndex(&Index{Name: "d", Table: "users", Fields: []IndexField{{Column: "age"}, {Column: "username"}}})
	if err != nil {
		t.Fatal(err)
	}
	if ix3 != ix4 || ix3.Signature() != "users|age|username" {
		t.Errorf("(age) registered as %s, (age, username) as %s", ix3.Signature(), ix4.Signature())
	}
	// Validation failures.
	bad := []*Index{
		{Name: "x", Table: "zzz", Fields: []IndexField{{Column: "a"}}},
		{Name: "x", Table: "users", Fields: nil},
		{Name: "x", Table: "users", Fields: []IndexField{{Column: "nope"}}},
		{Name: "x", Table: "users", Fields: []IndexField{{Column: "age", Token: true}}},
	}
	for i, ix := range bad {
		if _, err := c.AddIndex(ix); err == nil {
			t.Errorf("bad index %d accepted", i)
		}
	}
}

func TestIndexStringAndSignature(t *testing.T) {
	ix := &Index{Name: "i", Table: "Items", Fields: []IndexField{
		{Column: "I_TITLE", Token: true},
		{Column: "I_TITLE"},
		{Column: "I_ID", Desc: true},
	}}
	s := ix.String()
	if !strings.Contains(s, "Token(I_TITLE)") || !strings.Contains(s, "I_ID DESC") {
		t.Errorf("String = %q", s)
	}
	if ix.Signature() == (&Index{Table: "Items", Fields: []IndexField{{Column: "i_title"}}}).Signature() {
		t.Error("signatures collide")
	}
	cols := ix.KeyColumns()
	if len(cols) != 3 || cols[0] != "I_TITLE" {
		t.Errorf("KeyColumns = %v", cols)
	}
}

// TestRegisteredIndexStateAllocatesNothing: a registered index carries
// the signature its catalog computed when it took it, so the compiler's
// IndexState question per candidate index builds no string, while an
// unregistered index still answers with the same signature, computed.
func TestRegisteredIndexStateAllocatesNothing(t *testing.T) {
	c := NewCatalog()
	if err := c.AddTable(users()); err != nil {
		t.Fatal(err)
	}
	fields := []IndexField{{Column: "Bio", Token: true}, {Column: "age", Desc: true}, {Column: "username"}}
	ix, err := c.AddIndex(&Index{Name: "a", Table: "users", Fields: fields})
	if err != nil {
		t.Fatal(err)
	}
	c.SetIndexReady(ix)
	pk := c.Indexes("users")[0]
	for _, reg := range []*Index{pk, ix} {
		if got := testing.AllocsPerRun(100, func() { c.IndexState(reg) }); got != 0 {
			t.Errorf("IndexState(%s): %v allocations, want 0", reg, got)
		}
		if c.IndexState(reg) != StateReady {
			t.Errorf("IndexState(%s) = %s, want ready", reg, c.IndexState(reg))
		}
	}
	twin := &Index{Table: "USERS", Fields: fields}
	if twin.Signature() != ix.Signature() || c.IndexState(twin) != StateReady {
		t.Errorf("unregistered twin: signature %q, state %s; want %q, ready", twin.Signature(), c.IndexState(twin), ix.Signature())
	}
	if other := (&Index{Table: "users", Fields: fields[:1]}); c.IndexState(other) != StateBuilding {
		t.Errorf("unregistered index reports %s, want building", c.IndexState(other))
	}
}

func TestRowSizeEstimate(t *testing.T) {
	tab := users()
	c := NewCatalog()
	if err := c.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	// username 21 + age 9 + unbounded bio 256.
	if got := tab.RowSizeEstimate(); got != 21+9+256 {
		t.Errorf("RowSizeEstimate = %d", got)
	}
}

// TestLimitIndexes: AddTable registers a ready limit index for each
// CARDINALITY LIMIT the primary index cannot count, and none for one
// whose columns prefix the primary key, in any order. A limit index's
// fields are the limit's columns completed with the primary key; its
// signature is no index a plan can ask for, so AddIndex of the same
// fields registers a second index. Once that one is ready it counts the
// limit, and the limit index is retired; dropped, it is gone from the
// catalog and reports building.
func TestLimitIndexes(t *testing.T) {
	c := NewCatalog()
	tab := &Table{
		Name: "posts",
		Columns: []Column{
			{Name: "id", Type: value.TypeInt},
			{Name: "author", Type: value.TypeString},
			{Name: "day", Type: value.TypeInt},
		},
		PrimaryKey: []string{"day", "id"},
		Cardinalities: []Cardinality{
			{Limit: 9, Columns: []string{"id", "day"}}, // the primary key's columns, permuted
			{Limit: 5, Columns: []string{"author"}},
		},
	}
	if err := c.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	ixs := c.Indexes("posts")
	if len(ixs) != 2 || !ixs[1].Limit || ixs[1].String() != "posts(author, day, id)" || c.IndexState(ixs[1]) != StateReady {
		t.Fatalf("indexes %v: want the primary index and a ready limit index posts(author, day, id)", ixs)
	}
	pk, limit := ixs[0], ixs[1]
	if got := c.CountingIndex(tab, tab.Cardinalities[0]); got != pk {
		t.Errorf("CountingIndex(%s) = %v, want the primary index", tab.Cardinalities[0].String(), got)
	}
	if got := c.CountingIndex(tab, tab.Cardinalities[1]); got != limit {
		t.Errorf("CountingIndex(%s) = %v, want the limit index", tab.Cardinalities[1].String(), got)
	}
	if got := c.RetiredLimits(tab); len(got) != 0 {
		t.Errorf("RetiredLimits = %v with no other index counting author", got)
	}
	twin, err := c.AddIndex(&Index{Name: "by_author", Table: "posts", Fields: []IndexField{{Column: "author"}}})
	if err != nil {
		t.Fatal(err)
	}
	if twin == limit || twin.Signature() == limit.Signature() {
		t.Fatalf("AddIndex of the limit index's fields returned %v, signature %q: want an index of its own", twin, twin.Signature())
	}
	if got := c.RetiredLimits(tab); len(got) != 0 {
		t.Errorf("RetiredLimits = %v while by_author builds", got)
	}
	c.SetIndexReady(twin)
	if got := c.CountingIndex(tab, tab.Cardinalities[1]); got != twin {
		t.Errorf("CountingIndex = %v with by_author ready, want by_author", got)
	}
	if got := c.RetiredLimits(tab); len(got) != 1 || got[0] != limit {
		t.Fatalf("RetiredLimits = %v, want the limit index", got)
	}
	c.DropIndex(limit)
	if got := c.Indexes("posts"); len(got) != 2 || got[0] != pk || got[1] != twin || c.IndexState(limit) != StateBuilding {
		t.Errorf("after DropIndex: indexes %v, limit index %s", got, c.IndexState(limit))
	}
}
