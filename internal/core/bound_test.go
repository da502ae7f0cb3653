package core_test

import (
	"strings"
	"testing"

	"piql/internal/analyze"
	"piql/internal/core"
	"piql/internal/engine"
	"piql/internal/kvstore"
	"piql/internal/parser"
	"piql/internal/schema"
	"piql/internal/value"
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
		if chain := b.Chain(); len(chain) == 0 || chain[len(chain)-1].Kind != "unbounded" {
			t.Errorf("%s: chain = %+v", tc.name, chain)
		}
	}
}

// TestScanFetchLimitIsOneRule: what a scan fetches and what its bound
// books are one method, IndexScan.FetchLimit — the tighter of the pinned
// limit and the cardinality. The compiler never emits a scan whose
// cardinality is tighter than its pin, so one is built by hand: the walk
// must book 5 entries and the executor, over 10 stored rows, fetch 5.
func TestScanFetchLimitIsOneRule(t *testing.T) {
	s := engine.New(kvstore.New(kvstore.Config{Nodes: 1, ReplicationFactor: 1, Seed: 1}, nil)).Session(nil)
	if err := s.Exec(`CREATE TABLE thoughts (owner VARCHAR(20), ts INT, PRIMARY KEY (owner, ts), CARDINALITY LIMIT 40 (owner))`); err != nil {
		t.Fatal(err)
	}
	for ts := 0; ts < 10; ts++ {
		if err := s.Exec(`INSERT INTO thoughts VALUES ('me', ?)`, value.Int(int64(ts))); err != nil {
			t.Fatal(err)
		}
	}
	q, err := s.Prepare(`SELECT ts FROM thoughts WHERE owner = ? ORDER BY ts LIMIT 30`)
	if err != nil {
		t.Fatal(err)
	}
	scan, ok := q.Plan().RemoteOps()[0].(*core.IndexScan)
	if !ok || scan.LimitHint != 30 || scan.DataStopCard != 40 || scan.FetchLimit() != 30 {
		t.Fatalf("unexpected plan:\n%s", q.Plan().Explain())
	}
	scan.DataStopCard = 5
	if reqs := q.Plan().Requests(); scan.FetchLimit() != 5 || len(reqs) != 1 || reqs[0].Fetched != 5 || reqs[0].Alpha != 5 {
		t.Errorf("pin 30, cardinality 5: FetchLimit %d, the walk books %+v", scan.FetchLimit(), reqs)
	}
	res, err := q.Execute(s, value.Str("me"))
	if err != nil || len(res.Rows) != 5 {
		t.Errorf("pin 30, cardinality 5, 10 rows stored: the executor returns %v (err %v), want 5 rows", res, err)
	}
	scan.LimitHint, scan.DataStopCard, scan.Unbounded = 0, 0, true
	if reqs := q.Plan().Requests(); scan.FetchLimit() != 0 || reqs[0].Fetched != core.Unbounded {
		t.Errorf("unbounded scan: FetchLimit %d, the walk books %+v", scan.FetchLimit(), reqs)
	}
}
