package engine

import (
	"fmt"
	"strings"
	"testing"

	"piql/internal/exec"
	"piql/internal/kvstore"
	"piql/internal/value"
)

// Round-trip budget regression tests: every remote operator must cost a
// constant number of batched request sets, independent of its fan-out K.
// The session's op-counting client measures the EXACT number of storage
// requests per (plan, strategy) on a single-node cluster (one partition,
// so a batched request set is exactly one operation and any regression
// to per-stream or per-tuple requests shows up as a higher count).

// newRoundTripFixture builds a deterministic dataset whose fan-outs are
// known: user "u00" has K=3 approved subscriptions; each target user
// owns 12 thoughts and authors 12 articles; hometown "h0" has 3 users.
func newRoundTripFixture(t *testing.T) *Session {
	t.Helper()
	cluster := kvstore.New(kvstore.Config{Nodes: 1, ReplicationFactor: 1, Seed: 2}, nil)
	s := New(cluster).Session(nil)
	for _, ddl := range []string{
		`CREATE TABLE users (username VARCHAR(20), hometown VARCHAR(20), bio VARCHAR(140),
			PRIMARY KEY (username), CARDINALITY LIMIT 5 (hometown))`,
		`CREATE TABLE subscriptions (owner VARCHAR(20), target VARCHAR(20), approved BOOLEAN,
			PRIMARY KEY (owner, target), FOREIGN KEY (target) REFERENCES users, CARDINALITY LIMIT 100 (owner))`,
		`CREATE TABLE thoughts (owner VARCHAR(20), timestamp INT, text VARCHAR(140),
			PRIMARY KEY (owner, timestamp))`,
		`CREATE TABLE articles (id VARCHAR(20), author VARCHAR(20), ts INT, title VARCHAR(60),
			PRIMARY KEY (id), CARDINALITY LIMIT 20 (author))`,
	} {
		if err := s.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for u := 0; u < 6; u++ {
		name := fmt.Sprintf("u%02d", u)
		home := "h1"
		if u < 3 {
			home = "h0"
		}
		if err := s.Exec(`INSERT INTO users VALUES (?, ?, 'hi')`, value.Str(name), value.Str(home)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			if err := s.Exec(`INSERT INTO thoughts VALUES (?, ?, 'txt')`,
				value.Str(name), value.Int(int64(i))); err != nil {
				t.Fatal(err)
			}
			if err := s.Exec(`INSERT INTO articles VALUES (?, ?, ?, 'title')`,
				value.Str(fmt.Sprintf("a-%s-%02d", name, i)), value.Str(name), value.Int(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, target := range []string{"u01", "u02", "u03"} { // K = 3 streams
		if err := s.Exec(`INSERT INTO subscriptions VALUES ('u00', ?, true)`, value.Str(target)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestPerOperatorRoundTripBudgets(t *testing.T) {
	s := newRoundTripFixture(t)
	cases := []struct {
		name string
		sql  string
		arg  value.Value
		// Exact expected storage operations per strategy. The batching
		// executors (Simple, Parallel) must stay flat in the fan-out K;
		// Lazy pays per tuple by design (Section 8.5).
		lazy, simple, parallel int64
	}{
		{
			// PKLookup: one key, one request under every strategy.
			name: "pk lookup", arg: value.Str("u01"),
			sql:  `SELECT * FROM users WHERE username = ?`,
			lazy: 1, simple: 1, parallel: 1,
		},
		{
			// Primary IndexScan, LIMIT 10 of 12: one range request batched,
			// ten tuple-at-a-time requests lazy.
			name: "primary index scan", arg: value.Str("u01"),
			sql:  `SELECT * FROM thoughts WHERE owner = ? ORDER BY timestamp DESC LIMIT 10`,
			lazy: 10, simple: 1, parallel: 1,
		},
		{
			// Secondary IndexScan + dereference (3 matching users, bound 5):
			// one entry scan + ONE batched dereference. Lazy: 3 entries + 1
			// empty probe + 3 record gets.
			name: "secondary scan deref", arg: value.Str("h0"),
			sql:  `SELECT * FROM users WHERE hometown = ?`,
			lazy: 7, simple: 2, parallel: 2,
		},
		{
			// IndexFKJoin over K=3 child rows: one child scan + ONE batched
			// join fetch. Lazy: (3 entries + 1 empty probe) + 3 gets.
			name: "fk join", arg: value.Str("u00"),
			sql:  `SELECT u.* FROM subscriptions s JOIN users u WHERE u.username = s.target AND s.owner = ?`,
			lazy: 7, simple: 2, parallel: 2,
		},
		{
			// SortedIndexJoin over the PRIMARY index (thoughtstream), K=3
			// streams of 10: child scan + K per-stream range reads, no
			// dereference. Lazy: (3+1) child + 3x10 tuple fetches.
			name: "sorted join primary", arg: value.Str("u00"),
			sql: `SELECT thoughts.* FROM subscriptions s JOIN thoughts
			      WHERE thoughts.owner = s.target AND s.owner = ? AND s.approved = true
			      ORDER BY thoughts.timestamp DESC LIMIT 10`,
			lazy: 34, simple: 4, parallel: 4,
		},
		{
			// SortedIndexJoin over a SECONDARY index, K=3 streams of 10:
			// child scan + K per-stream entry reads + ONE batched
			// cross-stream dereference — NOT one dereference per stream
			// (which would be 7 = 1+K+K, the pre-batching behavior).
			// Lazy: (3+1) child + 3x10 entries + 30 record gets.
			name: "sorted join secondary", arg: value.Str("u00"),
			sql: `SELECT a.* FROM subscriptions s JOIN articles a
			      WHERE a.author = s.target AND s.owner = ? AND s.approved = true
			      ORDER BY a.ts DESC LIMIT 10`,
			lazy: 64, simple: 5, parallel: 5,
		},
	}
	for _, tc := range cases {
		q, err := s.Prepare(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for strat, want := range map[exec.Strategy]int64{
			exec.Lazy: tc.lazy, exec.Simple: tc.simple, exec.Parallel: tc.parallel,
		} {
			s.SetStrategy(strat)
			s.Client().ResetOps()
			res, err := q.Execute(s, tc.arg)
			if err != nil {
				t.Fatalf("%s (%v): %v", tc.name, strat, err)
			}
			if len(res.Rows) == 0 {
				t.Fatalf("%s (%v): no rows", tc.name, strat)
			}
			if got := s.Client().Ops(); got != want {
				t.Errorf("%s (%v): %d storage ops, want exactly %d", tc.name, strat, got, want)
			}
		}
	}
}

// TestSortedJoinRunAllocations pins what one exec.Run of the
// thoughtstream shape allocates: K=3 streams of 10 primary-index
// entries merged to a page of 10. Rows come out of one slab per
// operator, so the count moves with the number of operators and string
// values decoded, never with the number of rows materialised; a change
// that brings back a per-row or per-branch allocation shows here as an
// exact difference.
func TestSortedJoinRunAllocations(t *testing.T) {
	s := newRoundTripFixture(t)
	q, err := s.Prepare(`SELECT thoughts.* FROM subscriptions s JOIN thoughts
		WHERE thoughts.owner = s.target AND s.owner = ? AND s.approved = true
		ORDER BY thoughts.timestamp DESC LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &exec.Ctx{Client: s.Client(), Params: []value.Value{value.Str("u00")}, Strategy: exec.Parallel}
	allocs := testing.AllocsPerRun(200, func() {
		res, err := exec.Run(q.Plan(), ctx)
		if err != nil || len(res.Rows) != 10 {
			t.Fatalf("thoughtstream: %v rows, err %v", res, err)
		}
	})
	const want = 104
	if allocs != want {
		t.Fatalf("exec.Run(thoughtstream, K=3): %v allocs, pinned at %d", allocs, want)
	}
}

// TestResidualOnJoinedRelation: residual predicates bind relation-local
// column indexes, but operators evaluate them against the combined row
// — the compiler must rebase them by the relation's offset. Before that
// shift, a residual on any non-first relation silently compared the
// wrong column (here u.hometown would have read s.approved's slot).
func TestResidualOnJoinedRelation(t *testing.T) {
	s := newRoundTripFixture(t)
	q, err := s.Prepare(`SELECT u.username, u.hometown FROM subscriptions s JOIN users u
		WHERE u.username = s.target AND s.owner = ? AND u.hometown = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if expl := q.Plan().Explain(); !strings.Contains(expl, "residual: u.hometown") {
		t.Fatalf("expected a hometown residual on the join:\n%s", expl)
	}
	// u00 subscribes to u01, u02 (hometown h0) and u03 (hometown h1).
	res, err := q.Execute(s, value.Str("u00"), value.Str("h0"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2 (u01, u02): %v", len(res.Rows), res.Rows)
	}
	for _, row := range res.Rows {
		if row[1].S != "h0" {
			t.Fatalf("residual leaked row %v", row)
		}
	}
}

// TestPaginatedSortedJoinWithResidual: a residual predicate on a
// paginated SortedIndexJoin (the cardinality-bounded join shape — the
// ordered top-K shape never carries residuals) must compact the
// cursor's per-stream positions in lockstep with the dropped rows. A
// stale position makes the next page resume at a dropped row's key and
// re-return rows the previous page already delivered.
func TestPaginatedSortedJoinWithResidual(t *testing.T) {
	cluster := kvstore.New(kvstore.Config{Nodes: 1, ReplicationFactor: 1, Seed: 4}, nil)
	s := New(cluster).Session(nil)
	for _, ddl := range []string{
		`CREATE TABLE users (username VARCHAR(20), PRIMARY KEY (username))`,
		`CREATE TABLE subscriptions (owner VARCHAR(20), target VARCHAR(20),
			PRIMARY KEY (owner, target), FOREIGN KEY (target) REFERENCES users, CARDINALITY LIMIT 100 (owner))`,
		`CREATE TABLE articles (id VARCHAR(20), author VARCHAR(20), ts INT, title VARCHAR(60),
			PRIMARY KEY (id), CARDINALITY LIMIT 20 (author))`,
	} {
		if err := s.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	// One stream whose entry-key order (by id) matches ts DESC, so the
	// join's page order equals the output order; keep/drop alternates so
	// a page boundary lands right after rows preceded by a dropped one.
	if err := s.Exec(`INSERT INTO users VALUES ('u01')`); err != nil {
		t.Fatal(err)
	}
	if err := s.Exec(`INSERT INTO subscriptions VALUES ('u00', 'u01')`); err != nil {
		t.Fatal(err)
	}
	titles := []string{"drop", "keep", "keep", "drop", "keep", "drop", "keep", "keep"}
	var kept []string
	for i, title := range titles {
		id := fmt.Sprintf("a%d", i)
		if err := s.Exec(`INSERT INTO articles VALUES (?, 'u01', ?, ?)`,
			value.Str(id), value.Int(int64(100-i)), value.Str(title)); err != nil {
			t.Fatal(err)
		}
		if title == "keep" {
			kept = append(kept, id)
		}
	}
	q, err := s.Prepare(`SELECT a.id FROM subscriptions s JOIN articles a
		WHERE a.author = s.target AND s.owner = ? AND a.title <> 'drop'
		ORDER BY a.ts DESC PAGINATE 2`)
	if err != nil {
		t.Fatal(err)
	}
	// The test is only meaningful if the title predicate really is a
	// residual on the SortedIndexJoin (not pushed into a scan).
	if expl := q.Plan().Explain(); !strings.Contains(expl, "SortedIndexJoin") || !strings.Contains(expl, "residual") {
		t.Fatalf("plan does not have a residual sorted join:\n%s", expl)
	}
	cur, err := q.Paginate(value.Str("u00"))
	if err != nil {
		t.Fatal(err)
	}
	var paged []string
	for !cur.Done() {
		res, err := cur.Next(s)
		if err != nil {
			t.Fatal(err)
		}
		if res == nil {
			break
		}
		for _, row := range res.Rows {
			paged = append(paged, row[0].S)
		}
		if len(paged) > 2*len(titles) {
			t.Fatalf("cursor does not terminate: %v", paged)
		}
	}
	if len(paged) != len(kept) {
		t.Fatalf("paged %v, want %v (stale per-stream resume re-returns rows)", paged, kept)
	}
	for i := range kept {
		if paged[i] != kept[i] {
			t.Fatalf("page row %d = %s, want %s", i, paged[i], kept[i])
		}
	}
}

// TestSortedJoinDerefIsBatchedAcrossStreams pins the tentpole invariant
// directly: growing the number of join streams K must grow the batching
// executors' request count by exactly K (the per-stream range reads) and
// not 2K (range reads plus per-stream dereferences).
func TestSortedJoinDerefIsBatchedAcrossStreams(t *testing.T) {
	s := newRoundTripFixture(t)
	q, err := s.Prepare(`SELECT a.* FROM subscriptions s JOIN articles a
		WHERE a.author = s.target AND s.owner = ? AND s.approved = true
		ORDER BY a.ts DESC LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	opsWithK := func(k int) int64 {
		// u00 starts with K=3 targets; add more up to k.
		for extra := 3; extra < k; extra++ {
			target := fmt.Sprintf("u%02d", extra+1)
			if err := s.Exec(`INSERT INTO subscriptions VALUES ('u00', ?, true)`, value.Str(target)); err != nil {
				t.Fatal(err)
			}
		}
		s.SetStrategy(exec.Parallel)
		s.Client().ResetOps()
		if _, err := q.Execute(s, value.Str("u00")); err != nil {
			t.Fatal(err)
		}
		return s.Client().Ops()
	}
	k3, k5 := opsWithK(3), opsWithK(5)
	if k3 != 5 || k5 != 7 {
		t.Fatalf("ops(K=3)=%d ops(K=5)=%d, want 5 and 7: request count must grow by K, not 2K", k3, k5)
	}
}
