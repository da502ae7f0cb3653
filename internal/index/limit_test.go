package index

import (
	"errors"
	"slices"
	"testing"

	"piql/internal/kvstore"
	"piql/internal/schema"
	"piql/internal/value"
)

// liveCatalog is a copy-on-write catalog source: publish clones the
// current snapshot, applies one mutation, and keeps every snapshot it
// published, in order.
type liveCatalog struct {
	snaps []*schema.Catalog
}

func (l *liveCatalog) Catalog() *schema.Catalog { return l.snaps[len(l.snaps)-1] }

func (l *liveCatalog) publish(fn func(next *schema.Catalog)) {
	next := l.Catalog().Clone()
	fn(next)
	l.snaps = append(l.snaps, next)
}

// ordersCatalog returns an orders table whose CARDINALITY LIMIT 2
// (owner) prefixes no primary key, so AddTable gives it a limit index,
// and a building index that counts the limit too.
func ordersCatalog(t *testing.T) (*schema.Catalog, *schema.Table, *schema.Index) {
	t.Helper()
	cat := schema.NewCatalog()
	tab := &schema.Table{
		Name: "orders",
		Columns: []schema.Column{
			{Name: "id", Type: value.TypeInt},
			{Name: "owner", Type: value.TypeString, MaxLen: 20},
			{Name: "at", Type: value.TypeInt},
		},
		PrimaryKey:    []string{"id"},
		Cardinalities: []schema.Cardinality{{Limit: 2, Columns: []string{"owner"}}},
	}
	if err := cat.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	cover, err := cat.AddIndex(&schema.Index{Name: "last_order", Table: "orders",
		Fields: []schema.IndexField{{Column: "owner"}, {Column: "at", Desc: true}}})
	if err != nil {
		t.Fatal(err)
	}
	return cat, tab, cover
}

// TestRetiringALimitIndexAdmitsOneOfTwo: MarkReady publishes one
// snapshot after another — the limit index ready and the cover
// building, then both ready, then the limit index gone — and writers
// may run on any two of them one after the other. Starting from a
// group one row short of its limit, an insert on each of two adjacent
// snapshots, in either order, lands exactly once. Had the limit index
// gone in the publish that flips the cover ready, an insert on the new
// snapshot would count through the cover and write no limit entry, and
// one on the old snapshot after it would count through the limit index
// and miss it: both would land, three rows under a limit of two. At the
// end the catalog holds no limit index and its namespace no live key.
func TestRetiringALimitIndexAdmitsOneOfTwo(t *testing.T) {
	first, tab, cover := ordersCatalog(t)
	var limit *schema.Index
	for _, ix := range first.Indexes("orders") {
		if ix.Limit {
			limit = ix
		}
	}
	if limit == nil || first.IndexState(limit) != schema.StateReady {
		t.Fatalf("orders was created without a ready limit index: %v", first.Indexes("orders"))
	}
	row := func(id int64, at int64) value.Row { return value.Row{value.Int(id), value.Str("ann"), value.Int(at)} }
	live := &liveCatalog{snaps: []*schema.Catalog{first}}
	cl := kvstore.New(kvstore.Config{Nodes: 2, ReplicationFactor: 1, Seed: 3}, nil).NewClient(nil)
	if err := NewMaintainer(live).Insert(cl, tab, row(1, 10)); err != nil {
		t.Fatal(err)
	}
	if set, err := readPrefix(cl, kvstore.Count, IndexPrefix(limit), kvstore.ReadOpts{}); err != nil || set.N != 1 {
		t.Fatalf("the limit index holds %d entries (%v) of the group's one row", set.N, err)
	}
	drains := 0
	if err := NewMaintainer(live).MarkReady(cl, cover, live.publish, func() { drains++ }); err != nil {
		t.Fatal(err)
	}
	if drains != 2 {
		t.Errorf("retirement drained writers %d times, want 2: before and after the publish that drops the limit index", drains)
	}
	last := live.Catalog()
	if slices.ContainsFunc(last.Indexes("orders"), func(ix *schema.Index) bool { return ix.Limit }) || last.IndexState(cover) != schema.StateReady {
		t.Fatalf("after MarkReady: indexes %v, cover %s; want no limit index and the cover ready", last.Indexes("orders"), last.IndexState(cover))
	}
	if set, err := readPrefix(cl, kvstore.Count, IndexPrefix(limit), kvstore.ReadOpts{}); err != nil || set.N != 0 {
		t.Errorf("the retired limit index's namespace holds %d live keys (%v), want 0", set.N, err)
	}

	snaps := live.snaps
	for i := 1; i < len(snaps); i++ {
		for _, pair := range [][2]int{{i - 1, i}, {i, i - 1}} {
			cl := kvstore.New(kvstore.Config{Nodes: 2, ReplicationFactor: 1, Seed: 3}, nil).NewClient(nil)
			if err := NewMaintainer(first).Insert(cl, tab, row(1, 10)); err != nil {
				t.Fatal(err)
			}
			landed := 0
			for j, snap := range pair {
				err := NewMaintainer(snaps[snap]).Insert(cl, tab, row(int64(2+j), int64(20+j)))
				var card *ErrCardinalityExceeded
				switch {
				case err == nil:
					landed++
				case !errors.As(err, &card):
					t.Fatalf("snapshots %v: insert on snapshot %d: %v", pair, snap, err)
				}
			}
			if landed != 1 {
				t.Errorf("snapshots %v, one after the other: %d of two inserts landed in a group one short of its limit, want 1", pair, landed)
			}
		}
	}
}
