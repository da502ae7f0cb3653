package core_test

import (
	"strings"
	"testing"

	"piql/internal/analyze"
	"piql/internal/core"
	"piql/internal/parser"
	"piql/internal/schema"
)

// TestZeroFetchLimitIsUnbounded: a fetch limit of 0 asks the store for
// everything, so an operator the compiler would never emit — a scan
// with neither a pinned limit nor a cardinality, a sorted join with no
// per-key limit — is unbounded to the walk (not "0 tuples"), and the
// analyzer words it as a refusal.
func TestZeroFetchLimitIsUnbounded(t *testing.T) {
	cat := schema.NewCatalog()
	for _, ddl := range []string{
		`CREATE TABLE subscriptions (owner VARCHAR(20), target VARCHAR(20), PRIMARY KEY (owner, target), CARDINALITY LIMIT 100 (owner))`,
		`CREATE TABLE thoughts (owner VARCHAR(20), timestamp INT, text VARCHAR(140), PRIMARY KEY (owner, timestamp))`,
	} {
		stmt, err := parser.Parse(ddl)
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddTable(stmt.(*parser.CreateTable).Table); err != nil {
			t.Fatal(err)
		}
	}
	stmt, err := parser.Parse(`
		SELECT thoughts.* FROM subscriptions s JOIN thoughts
		WHERE thoughts.owner = s.target AND s.owner = [1: me]
		ORDER BY thoughts.timestamp DESC LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Compile(cat, stmt.(*parser.Select))
	if err != nil {
		t.Fatal(err)
	}
	// Copies of the compiled thoughtstream's two remote operators, each
	// with its limit taken away.
	var join core.SortedIndexJoin
	var scan core.IndexScan
	for n := plan.Root; n != nil; n = n.Child() {
		switch n := n.(type) {
		case *core.SortedIndexJoin:
			join = *n
		case *core.IndexScan:
			scan = *n
		}
	}
	if join.PerKeyLimit != 10 || scan.DataStopCard != 100 || scan.LimitHint != 0 || scan.Unbounded {
		t.Fatalf("unexpected thoughtstream plan:\n%s", plan.Explain())
	}
	join.PerKeyLimit = 0
	scan.DataStopCard = 0

	for _, tc := range []struct {
		name, offender, reason string
		root                   core.Physical
	}{
		{"scan with no limit", "IndexScan(", "no pinned limit and no cardinality constraint covering (owner)", &scan},
		{"sorted join with no per-key limit", "SortedIndexJoin(", "no cardinality constraint covers (owner)", &join},
	} {
		p := core.PlanOf(tc.root)
		if p.OpBound() != core.Unbounded || p.TupleBound() != core.Unbounded {
			t.Errorf("%s: bound = %d ops / %d tuples, want Unbounded\n%s", tc.name, p.OpBound(), p.TupleBound(), p.Explain())
		}
		b := analyze.Plan(p)
		if b.Bounded || b.Ops != core.Unbounded || !strings.HasPrefix(b.Offender, tc.offender) || !strings.Contains(b.Reason, tc.reason) {
			t.Errorf("%s: analyzed as %+v", tc.name, b)
		}
		if len(b.Suggestions) == 0 || !strings.Contains(b.Suggestions[0], "CARDINALITY LIMIT n (owner)") {
			t.Errorf("%s: suggestions = %q", tc.name, b.Suggestions)
		}
		if len(b.Chain) == 0 || b.Chain[len(b.Chain)-1].Kind != "unbounded" {
			t.Errorf("%s: chain = %+v", tc.name, b.Chain)
		}
	}
}
