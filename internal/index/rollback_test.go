package index

import (
	"fmt"
	"sync"
	"testing"

	"piql/internal/kvstore"
	"piql/internal/schema"
	"piql/internal/value"
)

// TestInsertRollbackRacingDelete regression-tests the duplicate-key
// rollback leak: Insert writes its index entries, fails the record
// test-and-set against an existing row, and — before it can read that
// row to compute a shared-entry-aware rollback — a concurrent Delete
// removes it. The seed code took "row gone" as "nothing to roll back"
// and left this insert's entries dangling forever. The fix deletes the
// insert's own entries when the read misses. Run under -race.
//
// The invariant checked after every racing pair quiesces: the index
// holds exactly the entries of the rows that exist — no dangling
// entries, no missing ones.
func TestInsertRollbackRacingDelete(t *testing.T) {
	cat := schema.NewCatalog()
	tab := &schema.Table{
		Name: "docs",
		Columns: []schema.Column{
			{Name: "id", Type: value.TypeString, MaxLen: 20},
			{Name: "tag", Type: value.TypeString, MaxLen: 20},
		},
		PrimaryKey: []string{"id"},
	}
	if err := cat.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	ix, err := cat.AddIndex(&schema.Index{
		Name:   "by_tag",
		Table:  "docs",
		Fields: []schema.IndexField{{Column: "tag"}, {Column: "id"}},
	})
	if err != nil {
		t.Fatal(err)
	}

	cluster := kvstore.New(kvstore.Config{Nodes: 3, ReplicationFactor: 2, Seed: 13}, nil)
	m := NewMaintainer(cat)

	const iterations = 4000
	pk := value.Row{value.Str("contested")}
	var wg sync.WaitGroup
	wg.Add(2)
	var duplicates int
	go func() { // inserter: same primary key, fresh tag every attempt
		defer wg.Done()
		cl := cluster.NewClient(nil)
		for i := 0; i < iterations; i++ {
			row := value.Row{value.Str("contested"), value.Str(fmt.Sprintf("tag-%06d", i))}
			if err := m.Insert(cl, tab, row); err != nil {
				if _, ok := err.(*ErrDuplicateKey); !ok {
					panic(err)
				}
				duplicates++
			}
		}
	}()
	go func() { // deleter: constantly removes the contested row
		defer wg.Done()
		cl := cluster.NewClient(nil)
		for i := 0; i < iterations; i++ {
			if err := m.Delete(cl, tab, pk); err != nil {
				panic(err)
			}
		}
	}()
	wg.Wait()
	if duplicates == 0 {
		t.Fatal("no duplicate-key collisions occurred; the race was never exercised")
	}

	// Quiesced: entries must exactly mirror the surviving records.
	if _, _, err := m.AuditMirror(cluster.NewClient(nil), ix); err != nil {
		t.Fatal(err)
	}
}

// TestConstraintIndexAnyOrder pins the doc'd behavior: an index whose
// leading fields permute the constraint columns serves the cardinality
// count (the match used to be positional and silently fell back to a
// full-table scan-count).
func TestConstraintIndexAnyOrder(t *testing.T) {
	cat := schema.NewCatalog()
	tab := &schema.Table{
		Name: "subs",
		Columns: []schema.Column{
			{Name: "approved", Type: value.TypeString, MaxLen: 5},
			{Name: "target", Type: value.TypeString, MaxLen: 20},
			{Name: "owner", Type: value.TypeString, MaxLen: 20},
		},
		PrimaryKey:    []string{"owner", "target"},
		Cardinalities: []schema.Cardinality{{Limit: 2, Columns: []string{"owner", "approved"}}},
	}
	if err := cat.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	// Leading fields are the constraint columns in the *other* order.
	if _, err := cat.AddIndex(&schema.Index{
		Name:   "by_approved_owner",
		Table:  "subs",
		Fields: []schema.IndexField{{Column: "approved"}, {Column: "owner"}, {Column: "target"}},
	}); err != nil {
		t.Fatal(err)
	}

	cluster := kvstore.New(kvstore.Config{Nodes: 2, ReplicationFactor: 1, Seed: 3}, nil)
	m := NewMaintainer(cat)
	// While the index is still building its backfill may undercount, so
	// the constraint check must not use it (the record-scan fallback is
	// always complete).
	if got := constraintIndex(cat, m.secondaryIndexes(tab), tab.Cardinalities[0]); got != nil {
		t.Fatalf("constraintIndex used building index %v", got)
	}
	cat.SetIndexReady(tab2Index(cat, "subs", "by_approved_owner"))
	// Once ready, the permuted index serves the constraint (the
	// positional matcher returned nil here and fell back to
	// scan-counting).
	if got := constraintIndex(cat, m.secondaryIndexes(tab), tab.Cardinalities[0]); got == nil || got.Name != "by_approved_owner" {
		t.Fatalf("constraintIndex = %v, want by_approved_owner", got)
	}
	cl := cluster.NewClient(nil)
	insert := func(owner, target, approved string) error {
		return m.Insert(cl, tab, value.Row{value.Str(approved), value.Str(target), value.Str(owner)})
	}
	if err := insert("ann", "t1", "yes"); err != nil {
		t.Fatal(err)
	}
	if err := insert("ann", "t2", "yes"); err != nil {
		t.Fatal(err)
	}
	cl.ResetOps()
	err := insert("ann", "t3", "yes")
	var card *ErrCardinalityExceeded
	if e, ok := err.(*ErrCardinalityExceeded); ok {
		card = e
	}
	if card == nil {
		t.Fatalf("third insert err = %v, want cardinality violation", err)
	}
	// The count must have gone through the permuted index (a bounded
	// count-range on its prefix), not a full record scan. With three
	// 1-partition... the op budget pins it: entries+record+count+undo is
	// far below what a record scan-count of every row would add per row,
	// but assert directly via the index path: a count over the index
	// prefix equals the rows sharing (owner, approved).
	prefix := ScanPrefix(tab2Index(cat, "subs", "by_approved_owner"), value.Row{value.Str("yes"), value.Str("ann")})
	if set, err := readPrefix(cl, kvstore.Count, prefix, kvstore.ReadOpts{}); err != nil || set.N != 2 {
		t.Fatalf("index-prefix count = %d (%v), want 2 surviving rows", set.N, err)
	}
	// A different owner is unaffected.
	if err := insert("bob", "t1", "yes"); err != nil {
		t.Fatalf("unrelated owner hit the limit: %v", err)
	}
}

// TestCountRefusesUndecodableRecord: a constraint that neither an index
// nor a primary-key prefix covers is counted over every record of the
// table. A record the count cannot decode may match, so it fails the
// count as an unreachable partition does, and the insert is undone and
// returns the error — skipping the record admitted the insert past its
// limit.
func TestCountRefusesUndecodableRecord(t *testing.T) {
	cat := schema.NewCatalog()
	tab := &schema.Table{
		Name: "posts",
		Columns: []schema.Column{
			{Name: "id", Type: value.TypeString, MaxLen: 20},
			{Name: "author", Type: value.TypeString, MaxLen: 20},
		},
		PrimaryKey:    []string{"id"},
		Cardinalities: []schema.Cardinality{{Limit: 1, Columns: []string{"author"}}},
	}
	if err := cat.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	cluster := kvstore.New(kvstore.Config{Nodes: 2, ReplicationFactor: 1, Seed: 5}, nil)
	cl := cluster.NewClient(nil)
	m := NewMaintainer(cat)
	if err := m.Insert(cl, tab, value.Row{value.Str("p1"), value.Str("ann")}); err != nil {
		t.Fatal(err)
	}
	// Bytes no row encodes to, under the table's record prefix.
	corrupt := RecordKeyFromPK(tab, value.Row{value.Str("p0")})
	if err := cl.Put(corrupt, []byte{0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	row := value.Row{value.Str("p2"), value.Str("bob")}
	err := m.Insert(cl, tab, row)
	if err == nil {
		t.Fatal("an insert counted over an undecodable record was admitted")
	}
	if _, ok := err.(*ErrCardinalityExceeded); ok {
		t.Fatalf("err = %v: the count did not complete, so the limit was not what refused it", err)
	}
	if _, _, ok, err := cl.Read(RecordKey(tab, row), kvstore.ReadOpts{}); err != nil || ok {
		t.Fatalf("the refused insert's record is still there (ok %v, err %v)", ok, err)
	}
}

func tab2Index(cat *schema.Catalog, table, name string) *schema.Index {
	for _, ix := range cat.Indexes(table) {
		if ix.Name == name {
			return ix
		}
	}
	return nil
}
