package engine

import (
	"errors"
	"slices"
	"testing"

	"piql/internal/analyze"
	"piql/internal/kvstore"
	"piql/internal/schema"
	"piql/internal/value"
)

// newAdmissionFixture builds an engine with the SCADr-style schema and
// a handful of rows: one celebrity with fans (the unbounded query's
// worst case) and ordinary users.
func newAdmissionFixture(t *testing.T) (*Engine, *Session) {
	t.Helper()
	cluster := kvstore.New(kvstore.Config{Nodes: 4, ReplicationFactor: 2, Seed: 7}, nil)
	eng := New(cluster)
	s := eng.Session(nil)
	for _, ddl := range []string{
		`CREATE TABLE users (username VARCHAR(20), bio VARCHAR(140), PRIMARY KEY (username))`,
		`CREATE TABLE subscriptions (owner VARCHAR(20), target VARCHAR(20), approved BOOLEAN,
			PRIMARY KEY (owner, target),
			FOREIGN KEY (target) REFERENCES users,
			CARDINALITY LIMIT 100 (owner))`,
	} {
		if err := s.Exec(ddl); err != nil {
			t.Fatalf("ddl: %v", err)
		}
	}
	for _, u := range []string{"celeb", "ann", "bob"} {
		if err := s.Exec(`INSERT INTO users VALUES (?, 'hi')`, value.Str(u)); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	for _, owner := range []string{"ann", "bob"} {
		if err := s.Exec(`INSERT INTO subscriptions VALUES (?, 'celeb', true)`, value.Str(owner)); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	return eng, s
}

const subscriberSQL = `SELECT * FROM subscriptions WHERE target = [1: t]`

func TestPrepareAttachesBound(t *testing.T) {
	_, s := newAdmissionFixture(t)
	p, err := s.Prepare(`SELECT * FROM users WHERE username = [1: u]`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	b := p.Bound()
	if b == nil || !b.Bounded {
		t.Fatalf("prepared plan carries bound %+v, want a bounded analysis", b)
	}
}

func TestPrepareCostBasedRunsWithoutPolicy(t *testing.T) {
	_, s := newAdmissionFixture(t)
	p, err := s.PrepareCostBased(subscriberSQL)
	if err != nil {
		t.Fatalf("cost-based prepare: %v", err)
	}
	if p.Bound().Bounded {
		t.Fatalf("subscriber query should analyze unbounded:\n%s", p.Plan().Explain())
	}
	res, err := p.Execute(s, value.Str("celeb"))
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2 subscribers", len(res.Rows))
	}
}

// TestPrepareCostBasedKeepsWinningPIQLPlan: where the baseline finds
// nothing cheaper (no simple equality predicate to scan on), the PIQL
// plan is what it returns — with the indexes it needs built and its
// page size kept, not a bare tree whose indexes nobody builds.
func TestPrepareCostBasedKeepsWinningPIQLPlan(t *testing.T) {
	_, s := newAdmissionFixture(t)
	for _, tc := range []struct {
		sql, arg       string
		rows, pageSize int
	}{
		{`SELECT username FROM users WHERE bio CONTAINS [1: w] ORDER BY bio LIMIT 10`, "hi", 3, 0},
		{`SELECT owner FROM subscriptions WHERE target CONTAINS [1: w] ORDER BY target PAGINATE 1`, "celeb", 1, 1},
	} {
		p, err := s.PrepareCostBased(tc.sql)
		if err != nil {
			t.Fatalf("cost-based prepare %s: %v", tc.sql, err)
		}
		res, err := p.Execute(s, value.Str(tc.arg))
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if len(res.Rows) != tc.rows || p.Plan().PageSize != tc.pageSize {
			t.Errorf("%s: %d rows, page size %d; want %d rows, page size %d\n%s",
				tc.sql, len(res.Rows), p.Plan().PageSize, tc.rows, tc.pageSize, p.Plan().Explain())
		}
	}
}

// TestCostBasedCandidateLeavesNoIndex: the baseline prices a PIQL
// candidate and, where the covering scan is cheaper, throws it away —
// with the index the candidate would have read. Compiled against the
// published catalog, that index stayed registered as building: never
// backfilled, and maintained by every later write to the table.
func TestCostBasedCandidateLeavesNoIndex(t *testing.T) {
	eng, s := newAdmissionFixture(t)
	insertOps := func(owner string) int64 {
		t.Helper()
		s.Client().ResetOps()
		if err := s.Exec(`INSERT INTO subscriptions VALUES (?, 'celeb', true)`, value.Str(owner)); err != nil {
			t.Fatal(err)
		}
		return s.Client().Ops()
	}
	before := insertOps("fan1")
	for _, sql := range []string{
		`SELECT * FROM subscriptions WHERE target = [1: t] LIMIT 10`,                          // an index on (target, owner) + 10 gets against 1 range
		`SELECT * FROM subscriptions WHERE target = [1: t] AND owner IN ('ann', 'bob', 'cy')`, // Figure 7: 3 gets
	} {
		p, err := s.PrepareCostBased(sql)
		if err != nil {
			t.Fatal(err)
		}
		if p.Bound().Bounded {
			t.Fatalf("%s: the baseline should pick the unbounded covering scan:\n%s", sql, p.Plan().Explain())
		}
		for _, ix := range eng.Catalog().Indexes("subscriptions") {
			if eng.Catalog().IndexState(ix) == schema.StateBuilding {
				t.Errorf("%s: index %s left building", sql, ix)
			}
		}
	}
	// One entry more per insert, written to both its replicas: the scan's
	// covering index, which is ready and read. Nothing for the candidates.
	if after := insertOps("fan2"); after != before+2 {
		t.Errorf("an insert into subscriptions costs %d operations after the Prepares, %d before", after, before)
	}
}

func TestAdmissionRefusesUnbounded(t *testing.T) {
	eng, s := newAdmissionFixture(t)

	// Cache the unbounded plan before enforcement: re-admission on the
	// cache hit must still refuse it afterwards.
	if _, err := s.PrepareCostBased(subscriberSQL); err != nil {
		t.Fatalf("pre-enforcement prepare: %v", err)
	}

	eng.SetAdmission(&analyze.Policy{Enforce: true})
	_, err := s.PrepareCostBased(subscriberSQL)
	var eu *analyze.ErrUnbounded
	if !errors.As(err, &eu) {
		t.Fatalf("got %v, want *analyze.ErrUnbounded", err)
	}
	want := []string{`IndexScan(subscriptions(target, owner, approved), key=([1: t]), ascending=true, UNBOUNDED)`}
	if !slices.Equal(eu.Chain, want) || len(eu.Suggestions) == 0 {
		t.Errorf("refusal = %+v, want chain %q and suggestions", eu, want)
	}
	// Bounded traffic is unaffected by enforcement.
	if _, err := s.Prepare(`SELECT * FROM subscriptions WHERE owner = [1: o]`); err != nil {
		t.Errorf("bounded query refused: %v", err)
	}
	// Dropping the policy re-admits the cached plan.
	eng.SetAdmission(nil)
	if _, err := s.PrepareCostBased(subscriberSQL); err != nil {
		t.Errorf("prepare after policy removal: %v", err)
	}
}

func TestAdmissionOpBudget(t *testing.T) {
	eng, s := newAdmissionFixture(t)
	eng.SetAdmission(&analyze.Policy{Enforce: true, MaxOps: 3})

	// owner equality: 1 range read — admitted.
	if _, err := s.Prepare(`SELECT * FROM subscriptions WHERE owner = [1: o]`); err != nil {
		t.Fatalf("1-op query refused under MaxOps=3: %v", err)
	}
	// IN list over 5 primary keys: 5 point gets — refused, not cached.
	over := `SELECT * FROM users WHERE username IN ('a', 'b', 'c', 'd', 'e')`
	_, err := s.Prepare(over)
	var eo *analyze.ErrOverSLO
	if !errors.As(err, &eo) {
		t.Fatalf("got %v, want *analyze.ErrOverSLO", err)
	}
	if want := []string{"PKLookup(users, keys=5)"}; eo.Ops != 5 || eo.MaxOps != 3 || !slices.Equal(eo.Chain, want) {
		t.Errorf("refusal = %+v, want ops 5 over budget 3 and chain %q", eo, want)
	}
	eng.SetAdmission(nil)
	if _, err := s.Prepare(over); err != nil {
		t.Errorf("refused plan was cached, or recompile failed: %v", err)
	}
}
