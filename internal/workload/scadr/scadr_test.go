package scadr

import (
	"testing"

	"piql/internal/engine"
	"piql/internal/kvstore"
)

func TestLoadAndAllQueriesCompileAndRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UsersPerNode = 40
	cfg.ThoughtsPerUser = 5
	cfg.SubsPerUser = 5
	cfg.MaxSubscriptions = 5

	cluster := kvstore.New(kvstore.Config{Nodes: 4, ReplicationFactor: 2, Seed: 1}, nil)
	eng := engine.New(cluster)
	s := eng.Session(nil)
	for _, ddl := range DDL(cfg) {
		if err := s.Exec(ddl); err != nil {
			t.Fatalf("ddl: %v", err)
		}
	}
	users, err := Load(s, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if users != 80 {
		t.Fatalf("users = %d", users)
	}
	w, err := NewWorker(s, cfg, users, 7)
	if err != nil {
		t.Fatal(err)
	}
	// All four queries run across many interactions without error.
	for i := 0; i < 50; i++ {
		if err := w.Interaction(); err != nil {
			t.Fatalf("interaction %d: %v", i, err)
		}
	}
	if err := w.Thoughtstream(); err != nil {
		t.Fatal(err)
	}
	// Every prepared query is bounded.
	for name, q := range w.Queries() {
		if q.Plan().OpBound() <= 0 {
			t.Errorf("%s has no bound", name)
		}
	}
	if w.RandomUser().S == "" {
		t.Error("RandomUser empty")
	}
	// The thoughtstream SQL helper parses.
	if _, err := s.Prepare(ThoughtstreamSQL(10)); err != nil {
		t.Fatal(err)
	}
}

func TestLoadTinyGraph(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UsersPerNode = 2
	cfg.SubsPerUser = 10 // larger than the graph: loader must not hang
	cluster := kvstore.New(kvstore.Config{Nodes: 1, ReplicationFactor: 1, Seed: 1}, nil)
	eng := engine.New(cluster)
	s := eng.Session(nil)
	for _, ddl := range DDL(cfg) {
		if err := s.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Load(s, cfg, 1); err != nil {
		t.Fatal(err)
	}
}
