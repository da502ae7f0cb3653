package index

import (
	"runtime/debug"
	"slices"
	"testing"

	"piql/internal/kvstore"
	"piql/internal/schema"
	"piql/internal/value"
)

// TestInsertAllocations pins what an insert plus a delete of one row
// costs the maintainer on an immediate cluster at replication factor 3,
// with three secondary indexes: each row's entries go to the store as
// one write set, so the count does not grow with a closure and an error
// slot per entry key (47 when the entries were written that way). Each
// key is one allocation of its exact size, the entry keys share one
// header per write, the record is encoded on the stack and the index
// list is the catalog's own, so the 20 left are what the store keeps —
// 8 keys and 8 envelopes — the two headers and the delete's decode of
// the row it removes (37 when every key grew from a clipped prefix, each
// entry came in a slice of its own, the record was encoded on the heap
// and each write copied the index list).
func TestInsertAllocations(t *testing.T) {
	if info, _ := debug.ReadBuildInfo(); info != nil && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("allocation counts differ under -race")
	}
	cat, tab := thoughtsTable(t)
	for _, ix := range []*schema.Index{
		{Name: "by_time", Table: "thoughts", Fields: []schema.IndexField{{Column: "timestamp"}}},
		{Name: "by_text", Table: "thoughts", Fields: []schema.IndexField{{Column: "text"}}},
		{Name: "by_owner_desc", Table: "thoughts", Fields: []schema.IndexField{{Column: "owner"}, {Column: "timestamp", Desc: true}}},
	} {
		if _, err := cat.AddIndex(ix); err != nil {
			t.Fatal(err)
		}
	}
	cl := kvstore.New(kvstore.Config{Nodes: 3, ReplicationFactor: 3, Seed: 4}, nil).NewClient(nil)
	m := NewMaintainer(cat)
	row := value.Row{value.Str("ann"), value.Int(7), value.Str("hello")}
	pk := row[:2]
	pair := func() {
		if err := m.Insert(cl, tab, row); err != nil {
			t.Fatal(err)
		}
		if err := m.Delete(cl, tab, pk); err != nil {
			t.Fatal(err)
		}
	}
	pair()
	if got, want := testing.AllocsPerRun(200, pair), 20.0; got > want {
		t.Errorf("insert + delete with three secondary indexes: %v allocations, want at most %v", got, want)
	}
	if n := len(m.secondaryIndexes(tab)); n != 3 {
		t.Fatalf("fixture has %d secondary indexes, want 3", n)
	}
}

// BenchmarkInsert times the maintainer's insert plus delete of one row,
// on an immediate cluster at replication factor 3, with no secondary
// index and with one: the write path's own layer, so a regression there
// shows here before it shows in a workload's allocations.
func BenchmarkInsert(b *testing.B) {
	for _, tc := range []struct {
		name string
		ixs  []*schema.Index
	}{
		{"no-index", nil},
		{"one-index", []*schema.Index{{Name: "by_time", Table: "thoughts", Fields: []schema.IndexField{{Column: "timestamp"}}}}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cat, tab := thoughtsTable(b)
			for _, ix := range tc.ixs {
				if _, err := cat.AddIndex(ix); err != nil {
					b.Fatal(err)
				}
			}
			cl := kvstore.New(kvstore.Config{Nodes: 3, ReplicationFactor: 3, Seed: 4}, nil).NewClient(nil)
			m := NewMaintainer(cat)
			row := value.Row{value.Str("ann"), value.Int(7), value.Str("hello")}
			b.ReportAllocs()
			for b.Loop() {
				if err := m.Insert(cl, tab, row); err != nil {
					b.Fatal(err)
				}
				if err := m.Delete(cl, tab, row[:2]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
