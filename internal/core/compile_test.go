package core_test

import (
	"slices"
	"testing"

	"piql/internal/core"
	"piql/internal/engine"
	"piql/internal/kvstore"
	"piql/internal/parser"
	"piql/internal/schema"
	"piql/internal/workload/scadr"
	"piql/internal/workload/tpcw"
)

// TestCompileLeavesCatalogUnchanged: Compile and CompileCostBased are
// functions of (catalog, statement). Every statement of the SCADr and
// TPC-W workloads, two the compiler refuses and the two shapes whose
// PIQL candidate the cost-based baseline drops are compiled against one
// catalog that holds only the tables; its index lists and states are
// afterwards what they were, whatever the plans asked for.
func TestCompileLeavesCatalogUnchanged(t *testing.T) {
	scfg, tcfg := scadr.DefaultConfig(), tpcw.DefaultConfig()
	ddl := slices.Concat(scadr.DDL(scfg), tpcw.DDL(tcfg))
	cat := schema.NewCatalog()
	for _, d := range ddl {
		stmt, err := parser.Parse(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddTable(stmt.(*parser.CreateTable).Table); err != nil {
			t.Fatal(err)
		}
	}

	// SCADr's texts are its worker's prepared statements.
	s := engine.New(kvstore.New(kvstore.Config{Nodes: 1, ReplicationFactor: 1, Seed: 1}, nil)).Session(nil)
	for _, d := range scadr.DDL(scfg) {
		if err := s.Exec(d); err != nil {
			t.Fatal(err)
		}
	}
	w, err := scadr.NewWorker(s, scfg, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var admitted []string
	for _, q := range w.Queries() {
		admitted = append(admitted, q.SQL())
	}
	for _, sql := range tpcw.QuerySQL() {
		admitted = append(admitted, sql)
	}
	refused := []string{
		`SELECT * FROM users WHERE hometown = [1: h]`, // no bound on the matches
		`SELECT thoughts.text FROM users u JOIN thoughts
			WHERE thoughts.owner = u.username AND u.hometown = [1: h] LIMIT 10`, // refused after the base relation was matched
	}
	costBased := []string{
		`SELECT * FROM subscriptions WHERE target = [1: t] LIMIT 10`,
		`SELECT * FROM subscriptions WHERE target = [1: t] AND owner IN ('ann', 'bob', 'cy')`,
	}

	type entry struct {
		ix    *schema.Index
		state schema.IndexState
	}
	indexes := func() map[string][]entry {
		out := make(map[string][]entry)
		for _, tab := range cat.Tables() {
			for _, ix := range cat.Indexes(tab.Name) {
				out[tab.Name] = append(out[tab.Name], entry{ix, cat.IndexState(ix)})
			}
		}
		return out
	}
	before := indexes()
	check := func(sql string) {
		t.Helper()
		after := indexes()
		for table, want := range before {
			if !slices.Equal(after[table], want) {
				t.Fatalf("compiling %s\nchanged the indexes of %s: %d before, %d after", sql, table, len(want), len(after[table]))
			}
		}
	}
	parse := func(sql string) *parser.Select {
		t.Helper()
		stmt, err := parser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		return stmt.(*parser.Select)
	}

	asked := 0 // indexes the plans read that the catalog does not hold
	for _, sql := range admitted {
		plan, err := core.Compile(cat, parse(sql))
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		for _, ix := range plan.RequiredIndexes {
			if ix.EntryLayout() == nil {
				asked++
			}
		}
		check(sql)
	}
	if asked == 0 {
		t.Error("no admitted statement asked for a new index: the test compares nothing")
	}
	for _, sql := range refused {
		if _, err := core.Compile(cat, parse(sql)); err == nil {
			t.Errorf("%s: compiled, want a refusal", sql)
		}
		check(sql)
	}
	for _, sql := range costBased {
		plan, err := core.CompileCostBased(cat, parse(sql))
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if plan.OpBound() != core.Unbounded {
			t.Errorf("%s: the baseline should pick the unbounded covering scan:\n%s", sql, plan.Explain())
		}
		// The scan's covering index, not the dropped candidate's.
		if len(plan.RequiredIndexes) != 1 {
			t.Errorf("%s: the plan asks for %v", sql, plan.RequiredIndexes)
		}
		check(sql)
	}
}
