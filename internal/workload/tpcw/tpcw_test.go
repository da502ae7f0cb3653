package tpcw

import (
	"testing"

	"piql/internal/engine"
	"piql/internal/kvstore"
)

func testEngine(t *testing.T) (*engine.Session, Config) {
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
	return s, cfg
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
