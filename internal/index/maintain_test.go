package index

import (
	"bytes"
	"math/rand"
	"runtime/debug"
	"slices"
	"strings"
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
	m, tab, cl := threeIndexFixture(t)
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
}

// threeIndexFixture is the thoughts table with three secondary indexes,
// on an immediate cluster at replication factor 3, and its maintainer.
func threeIndexFixture(t *testing.T) (*Maintainer, *schema.Table, *kvstore.Client) {
	t.Helper()
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
	m := NewMaintainer(cat)
	if _, ixs := m.snapshot(tab); len(ixs) != 3 {
		t.Fatalf("fixture has %d secondary indexes, want 3", len(ixs))
	}
	return m, tab, kvstore.New(kvstore.Config{Nodes: 3, ReplicationFactor: 3, Seed: 4}, nil).NewClient(nil)
}

// TestUpdateAllocations pins what an update of one indexed column costs
// the maintainer on the fixture of TestInsertAllocations: each row's
// entry keys are built once, into one header, and the stale ones are the
// old row's list less the new row's, taken in place. So the 15 are the
// five keys the store keeps (three entries, the record's and the stale
// entry's) and their five envelopes, the encoded record, the two lists'
// headers and the two old entry keys the new row shares (28 when the
// stale entries re-encoded both rows' keys into a map per index).
func TestUpdateAllocations(t *testing.T) {
	if info, _ := debug.ReadBuildInfo(); info != nil && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("allocation counts differ under -race")
	}
	m, tab, cl := threeIndexFixture(t)
	old := value.Row{value.Str("ann"), value.Int(7), value.Str("hello")}
	row := value.Row{value.Str("ann"), value.Int(7), value.Str("world")}
	if err := m.Insert(cl, tab, old); err != nil {
		t.Fatal(err)
	}
	update := func() {
		if err := m.Update(cl, tab, old, row); err != nil {
			t.Fatal(err)
		}
	}
	update()
	if got, want := testing.AllocsPerRun(200, update), 15.0; got > want {
		t.Errorf("update of one indexed column with three secondary indexes: %v allocations, want at most %v", got, want)
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

// TestDeleteOfCorruptRecord: a delete decodes the stored row only to
// rebuild its entries. In a table with no secondary index a record that
// does not decode is deleted like any other; in one with an index it is
// refused as corrupt and stays, for the entries it would leave behind
// cannot be known.
func TestDeleteOfCorruptRecord(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ixs     []*schema.Index
		refused bool
	}{
		{"no secondary index", nil, false},
		{"a secondary index", []*schema.Index{{Name: "by_time", Table: "thoughts", Fields: []schema.IndexField{{Column: "timestamp"}}}}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cat, tab := thoughtsTable(t)
			for _, ix := range tc.ixs {
				if _, err := cat.AddIndex(ix); err != nil {
					t.Fatal(err)
				}
			}
			cl := kvstore.New(kvstore.Config{Nodes: 1, ReplicationFactor: 1, Seed: 1}, nil).NewClient(nil)
			pk := value.Row{value.Str("ann"), value.Int(7)}
			rkey := RecordKeyFromPK(tab, pk)
			if err := cl.Put(rkey, []byte{0xff}); err != nil {
				t.Fatal(err)
			}
			err := NewMaintainer(cat).Delete(cl, tab, pk)
			if tc.refused && (err == nil || !strings.Contains(err.Error(), "corrupt record")) {
				t.Errorf("delete of an undecodable record: err = %v, want it refused as corrupt", err)
			} else if !tc.refused && err != nil {
				t.Errorf("delete of an undecodable record: %v", err)
			}
			_, _, stored, err := cl.Read(rkey, kvstore.ReadOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if stored != tc.refused {
				t.Errorf("after the delete the record is stored: %v, want %v", stored, tc.refused)
			}
		})
	}
}

// TestWritesMirrorEveryIndex runs a seeded mix of inserts, updates and
// deletes through the write protocol, over a plain, a descending and a
// tokenized index whose rows share tokens, and audits after each write
// that every index holds exactly the entries its table's records make:
// the entries a write puts and the stale ones it deletes are the right
// difference of the two rows' lists. Every index's build registry is open
// throughout, and each key a write deleted must be recorded under the
// index it belongs to.
func TestWritesMirrorEveryIndex(t *testing.T) {
	cat, tab := thoughtsTable(t)
	var ixs []*schema.Index
	for _, ix := range []*schema.Index{
		{Name: "by_time", Table: "thoughts", Fields: []schema.IndexField{{Column: "timestamp"}, {Column: "owner"}}},
		{Name: "by_word", Table: "thoughts", Fields: []schema.IndexField{{Column: "text", Token: true}, {Column: "owner"}, {Column: "timestamp"}}},
		{Name: "by_owner_desc", Table: "thoughts", Fields: []schema.IndexField{{Column: "owner"}, {Column: "timestamp", Desc: true}}},
	} {
		ix, err := cat.AddIndex(ix)
		if err != nil {
			t.Fatal(err)
		}
		ixs = append(ixs, ix)
	}
	cl := kvstore.New(kvstore.Config{Nodes: 3, ReplicationFactor: 2, Seed: 5}, nil).NewClient(nil)
	m := NewMaintainer(cat)
	for _, ix := range ixs {
		m.BeginBuildTombstones(ix)
	}
	rng := rand.New(rand.NewSource(9))
	texts := []string{"red", "red blue", "blue green red", "green", "blue blue"}
	stored := map[int64]value.Row{} // by timestamp; every row is ann's
	for i := 0; i < 300; i++ {
		ts := int64(rng.Intn(6))
		row := value.Row{value.Str("ann"), value.Int(ts), value.Str(texts[rng.Intn(len(texts))])}
		old, ok := stored[ts]
		var err error
		switch {
		case !ok:
			err = m.Insert(cl, tab, row)
			stored[ts] = row
		case rng.Intn(3) == 0:
			err = m.Delete(cl, tab, row[:2])
			delete(stored, ts)
		default:
			err = m.Update(cl, tab, old, row)
			stored[ts] = row
		}
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		for _, ix := range ixs {
			if _, _, err := m.AuditMirror(cl, ix); err != nil {
				t.Fatalf("after write %d (%v to %v): %v", i, old, row, err)
			}
		}
	}
	for _, ix := range ixs {
		for _, key := range m.TakeBuildTombstones(ix) {
			if !bytes.HasPrefix(key, IndexPrefix(ix)) {
				t.Errorf("deleted entry %q recorded under %s", key, ix.Name)
			}
		}
	}
}
