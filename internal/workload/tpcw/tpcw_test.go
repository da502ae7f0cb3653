package tpcw

import (
	"runtime/debug"
	"slices"
	"testing"

	"piql/internal/codec"
	"piql/internal/engine"
	"piql/internal/index"
	"piql/internal/kvstore"
	"piql/internal/schema"
	"piql/internal/value"
)

func testEngine(t *testing.T) (*engine.Session, Config) {
	s, cfg, _ := testEngineOf(t)
	return s, cfg
}

// testEngineOf builds the schema on a 4-node cluster at replication
// factor 2 and returns the engine's loader session, the sizes to load and
// the engine.
func testEngineOf(t *testing.T) (*engine.Session, Config, *engine.Engine) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.CustomersPerNode = 40
	cfg.Items = 300
	cluster := kvstore.New(kvstore.Config{Nodes: 4, ReplicationFactor: 2, Seed: 2}, nil)
	eng := engine.New(cluster)
	s := eng.Session(nil)
	for _, ddl := range DDL(cfg) {
		if err := s.Exec(ddl); err != nil {
			t.Fatalf("ddl: %v", err)
		}
	}
	return s, cfg, eng
}

// TestAllTable1QueriesCompile verifies every interaction of the paper's
// Table 1 compiles to a bounded plan against the TPC-W schema.
func TestAllTable1QueriesCompile(t *testing.T) {
	s, _ := testEngine(t)
	for name, sql := range QuerySQL() {
		q, err := s.Prepare(sql)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if q.Plan().OpBound() <= 0 {
			t.Errorf("%s: unbounded", name)
		}
	}
}

func TestOrderingMixRuns(t *testing.T) {
	s, cfg := testEngine(t)
	customers, items, err := Load(s, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if customers != 80 || items != 300 {
		t.Fatalf("loaded %d customers, %d items", customers, items)
	}
	w, err := NewWorker(s, cfg, customers, items, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Run enough interactions to hit every mix entry, including the
	// write-heavy ones.
	for i := 0; i < 120; i++ {
		if err := w.Interaction(); err != nil {
			t.Fatalf("interaction %d: %v", i, err)
		}
	}
}

// TestLastOrderRetiresTheLimitIndex: orders' CARDINALITY LIMIT (o_c_uname)
// prefixes no primary key, so the table is created with a limit index
// that counts each insert's group while TPC-W loads. Preparing Get Last
// Order builds (o_c_uname, o_date_time DESC, o_id), which counts the
// limit too, and retires the limit index: the catalog holds none, its
// namespace holds no live key, and an orders insert costs what it did
// before tables had limit indexes — its entry in the Last Order index,
// its record's test-and-set and one count, 5 operations at replication
// factor 2, and 12 allocations for the insert and a delete.
func TestLastOrderRetiresTheLimitIndex(t *testing.T) {
	s, cfg, eng := testEngineOf(t)
	var limit *schema.Index
	for _, ix := range eng.Catalog().Indexes("orders") {
		if ix.Limit {
			limit = ix
		}
	}
	if limit == nil {
		t.Fatal("orders was created without a limit index")
	}
	customers, _, err := Load(s, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Prepare(QuerySQL()["Order Display WI Get Last Order"]); err != nil {
		t.Fatal(err)
	}
	for _, ix := range eng.Catalog().Indexes("orders") {
		if ix.Limit {
			t.Errorf("the catalog still holds limit index %s", ix.Name)
		}
	}
	set := kvstore.RequestSet{Kind: kvstore.Count, Range: kvstore.RangeRequest{Start: index.IndexPrefix(limit), End: codec.PrefixEnd(index.IndexPrefix(limit))}}
	if err := s.Client().Issue(&set, kvstore.ReadOpts{}); err != nil || set.N != 0 {
		t.Errorf("the retired limit index's namespace holds %d live keys (%v), want 0", set.N, err)
	}
	if info, _ := debug.ReadBuildInfo(); info != nil && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("allocation counts differ under -race")
	}
	id, uname := int64(1_000_000), value.Str(CustomerName(customers/2))
	insert := func() {
		id++
		if err := s.Exec(`INSERT INTO orders VALUES (?, ?, ?, ?, ?)`, value.Int(id), uname, value.Int(30000000), value.Int(1000), value.Str("pending")); err != nil {
			t.Fatal(err)
		}
	}
	pair := func() {
		insert()
		if err := s.Exec(`DELETE FROM orders WHERE o_id = ?`, value.Int(id)); err != nil {
			t.Fatal(err)
		}
	}
	pair() // binds both texts
	s.Client().ResetOps()
	insert()
	if got, want := s.Client().ResetOps(), int64(5); got != want {
		t.Errorf("an orders insert: %d operations, want %d", got, want)
	}
	if got, want := testing.AllocsPerRun(100, pair), 12.0; got > want {
		t.Errorf("an orders insert + delete: %v allocations, want at most %v", got, want)
	}
}
