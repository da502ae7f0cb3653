package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"piql/internal/core"
	"piql/internal/exec"
	"piql/internal/index"
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
func newRoundTripFixture(t testing.TB) *Session {
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
			// Lazy: (3+1) child + 3x10 entries + 10 record gets — only
			// the page the merge keeps is dereferenced, not all 30.
			name: "sorted join secondary", arg: value.Str("u00"),
			sql: `SELECT a.* FROM subscriptions s JOIN articles a
			      WHERE a.author = s.target AND s.owner = ? AND s.approved = true
			      ORDER BY a.ts DESC LIMIT 10`,
			lazy: 44, simple: 5, parallel: 5,
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

// TestUpdateReadsItsRowOnce pins an UPDATE's storage operations on a
// table with one secondary index: the one read the engine applies SET to
// — the maintainer is handed that row and does not fetch it again — the
// new entry, the record, and the stale entry where an indexed column
// changed.
func TestUpdateReadsItsRowOnce(t *testing.T) {
	s := newRoundTripFixture(t)
	if err := s.Exec(`CREATE INDEX users_by_home ON users (hometown, username)`); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sql  string
		want int64
	}{
		{`UPDATE users SET hometown = 'h9' WHERE username = 'u05'`, 4},
		{`UPDATE users SET bio = 'new' WHERE username = 'u05'`, 3}, // same entry key: nothing stale
	} {
		s.Client().ResetOps()
		if err := s.Exec(tc.sql); err != nil {
			t.Fatal(err)
		}
		if got := s.Client().Ops(); got != tc.want {
			t.Errorf("%s: %d storage operations, want %d", tc.sql, got, tc.want)
		}
	}
	res, err := s.Query(`SELECT username, bio FROM users WHERE hometown = 'h9'`)
	if err != nil || fmt.Sprint(res.Rows) != `[("u05", "new")]` {
		t.Fatalf("after the updates hometown h9 holds %v (err %v)", res, err)
	}
}

// TestSortedJoinRunAllocations pins what one exec.Run of the
// thoughtstream shape allocates: K streams of 10 primary-index entries
// merged to a page of 10, at K=3 and at K=10, on one warm Ctx. Only the
// page is decoded, into one string arena per operator; the K ranges are
// one request set read into the Ctx's result buffer, and the candidates,
// the child scan's and the join's values and the headers of the rows an
// operator hands its parent are carved from the Ctx's scratch, so the
// count moves with the number of operators, never with the
// streams, the entries fetched or the strings of the 10 rows kept; a
// change that brings back a per-entry, per-row, per-string, per-stream
// or per-branch allocation shows here as an exact difference, and K=10
// costing more than K=3 is one per stream.
func TestSortedJoinRunAllocations(t *testing.T) {
	s, q := thoughtstreamFixture(t)
	run := func(owner string) float64 {
		ctx := &exec.Ctx{Client: s.Client(), Params: []value.Value{value.Str(owner)}, Strategy: exec.Parallel}
		return testing.AllocsPerRun(200, func() {
			res, err := exec.Run(q.Plan(), ctx)
			if err != nil || len(res.Rows) != 10 {
				t.Fatalf("thoughtstream(%s): %v rows, err %v", owner, res, err)
			}
		})
	}
	// 56 until each operator decoded its strings into one arena, 32 until
	// each encoded its keys into one buffer, 22 until the K ranges went to
	// the store as one request set in place of a closure and a result
	// buffer per stream, 17 until the key buffers, the streams, their
	// requests and the store's results came from the Ctx's scratch, 10
	// until the intermediate row headers and the candidate batch did too, 7
	// until the child scan carved its values from the scratch as well, 6
	// until the join's rounds did too.
	const want = 5
	if k3, k10 := run("u00"), run("w10"); k3 != want || k10 != want {
		t.Fatalf("exec.Run(thoughtstream): %v allocs at K=3, %v at K=10, pinned at %d for both", k3, k10, want)
	}
}

// thoughtstreamFixture is newRoundTripFixture plus "w10", who subscribes
// to ten users, each of whom owns 12 thoughts, and the thoughtstream
// query: "u00" reads K=3 streams, "w10" K=10.
func thoughtstreamFixture(tb testing.TB) (*Session, *Prepared) {
	tb.Helper()
	s := newRoundTripFixture(tb)
	for u := 0; u < 10; u++ {
		name := fmt.Sprintf("u%02d", u)
		for i := 0; u >= 6 && i < 12; i++ {
			if err := s.Exec(`INSERT INTO thoughts VALUES (?, ?, 'txt')`, value.Str(name), value.Int(int64(i))); err != nil {
				tb.Fatal(err)
			}
		}
		if err := s.Exec(`INSERT INTO subscriptions VALUES ('w10', ?, true)`, value.Str(name)); err != nil {
			tb.Fatal(err)
		}
	}
	q, err := s.Prepare(`SELECT thoughts.* FROM subscriptions s JOIN thoughts
		WHERE thoughts.owner = s.target AND s.owner = ? AND s.approved = true
		ORDER BY thoughts.timestamp DESC LIMIT 10`)
	if err != nil {
		tb.Fatal(err)
	}
	return s, q
}

// BenchmarkSortedJoinRun is one exec.Run of the thoughtstream on a warm
// Ctx, TestSortedJoinRunAllocations' shape, at K=3 and K=10 streams: the
// executor's and the store's time for one page, layer by layer beside the
// end-to-end scadr_home interaction.
func BenchmarkSortedJoinRun(b *testing.B) {
	s, q := thoughtstreamFixture(b)
	for _, k := range []struct {
		name, owner string
	}{{"K=3", "u00"}, {"K=10", "w10"}} {
		b.Run(k.name, func(b *testing.B) {
			ctx := &exec.Ctx{Client: s.Client(), Params: []value.Value{value.Str(k.owner)}, Strategy: exec.Parallel}
			b.ReportAllocs()
			for b.Loop() {
				if res, err := exec.Run(q.Plan(), ctx); err != nil || len(res.Rows) != 10 {
					b.Fatalf("thoughtstream(%s): %v, %v", k.owner, res, err)
				}
			}
		})
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
	// One stream, read in entry-key order (by id); keep/drop alternates so
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
	const stream = `SELECT a.id FROM subscriptions s JOIN articles a
		WHERE a.author = s.target AND s.owner = ? AND a.title <> 'drop'`
	// This statement ordered by a.ts paginated until the pager: with one
	// stream the sort above the join happened to agree with the join's
	// order. It is refused now, and the refused Prepare leaves behind none
	// of the indexes its compilation chose.
	before := len(s.eng.Catalog().Indexes("articles"))
	var nsi *core.NotScaleIndependentError
	if _, err := s.Prepare(stream + ` ORDER BY a.ts DESC PAGINATE 2`); !errors.As(err, &nsi) || !strings.HasPrefix(nsi.Segment, "LocalSort(") {
		t.Fatalf("PAGINATE over the sort above the join: err = %v, want it refused", err)
	}
	if after := len(s.eng.Catalog().Indexes("articles")); after != before {
		t.Fatalf("the refused Prepare left articles with %d indexes, %d before", after, before)
	}
	q, err := s.Prepare(stream + ` PAGINATE 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.eng.Catalog().Indexes("articles")) == before { // or the check above proves nothing
		t.Fatal("the accepted statement reads articles through no new index")
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

// TestSortedJoinDanglingSurvivors: index entries whose record is gone
// (deleted underneath the index, awaiting GC) rank in the top L of the
// merge. The join must replace each with the next live entry of the
// merge — the page stays full and in order — in a constant number of
// request sets: the L of the page alone when none of them dangles;
// otherwise one more set with everything else fetched, every entry read
// exactly once — K·L, which is what the static bound books.
func TestSortedJoinDanglingSurvivors(t *testing.T) {
	const sql = `SELECT a.id, a.ts FROM subscriptions s JOIN articles a
		WHERE a.author = s.target AND s.owner = ? AND s.approved = true
		ORDER BY a.ts DESC LIMIT 10`
	const K, L, perAuthor = 3, 10, 12
	for _, tc := range []struct {
		name      string
		dangling  int // records deleted under the top-ranked entries
		rows      int
		reads     int // Lazy: one request per record read
		batchSets int // Simple/Parallel: dereference request sets
	}{
		{"none", 0, L, L, 1},
		{"one", 1, L, K * L, 2},
		{"a whole page", L, L, K * L, 2},
		{"all but a page", K*L - L, L, K * L, 2},
		// Each stream fetches its first L entries, as before: rows whose
		// entry lies beyond them (ts 0 and 1) stay out of this page's reach.
		{"all but three of the entries fetched", K*L - 3, 3, K * L, 2},
	} {
		s := newRoundTripFixture(t)
		q, err := s.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		// The index is (author, ts DESC, id), so across the three streams
		// entries rank by ts descending and, within a ts, by id: the top d
		// entries are ts 11 of u01, u02, u03, then ts 10 of u01, ...
		articles := s.eng.Catalog().Table("articles")
		deleted := map[string]bool{}
		for ts := perAuthor - 1; len(deleted) < tc.dangling; ts-- {
			for _, author := range []string{"u01", "u02", "u03"} {
				if len(deleted) == tc.dangling {
					break
				}
				id := fmt.Sprintf("a-%s-%02d", author, ts)
				if err := s.Client().Delete(index.RecordKeyFromPK(articles, value.Row{value.Str(id)})); err != nil {
					t.Fatal(err)
				}
				deleted[id] = true
			}
		}
		derefBound := 0
		for _, ob := range q.Bound().Chain() {
			if ob.Kind == "deref gets" {
				derefBound = ob.Ops
			}
		}
		for _, strat := range []exec.Strategy{exec.Lazy, exec.Simple, exec.Parallel} {
			s.SetStrategy(strat)
			s.Client().ResetOps()
			res, err := q.Execute(s, value.Str("u00"))
			if err != nil {
				t.Fatalf("%s (%v): %v", tc.name, strat, err)
			}
			// 1 child scan + K entry range reads, tuple at a time for Lazy:
			// (K + 1 empty probe) + K×L.
			ops, entryOps, want := int(s.Client().Ops()), 1+K, tc.batchSets
			if strat == exec.Lazy {
				entryOps, want = K+1+K*L, tc.reads
			}
			if got := ops - entryOps; got != want || got > derefBound {
				t.Errorf("%s (%v): %d dereference requests, want exactly %d (static deref bound %d)",
					tc.name, strat, got, want, derefBound)
			}
			if len(res.Rows) != tc.rows {
				t.Fatalf("%s (%v): %d rows, want %d: %v", tc.name, strat, len(res.Rows), tc.rows, res.Rows)
			}
			// The live articles in ts DESC order: ts repeats once per
			// author until the deleted ones are skipped.
			seen := map[string]bool{}
			for i, row := range res.Rows {
				id, ts := row[0].S, row[1].I
				if deleted[id] || seen[id] || id[len(id)-2:] != fmt.Sprintf("%02d", ts) {
					t.Errorf("%s (%v): row %d = %v is deleted, repeated or mismatched", tc.name, strat, i, row)
				}
				seen[id] = true
				if wantTs := int64(perAuthor - 1 - (tc.dangling+i)/K); ts != wantTs {
					t.Errorf("%s (%v): row %d has ts %d, want %d: %v", tc.name, strat, i, ts, wantTs, res.Rows)
				}
			}
		}
	}
}

// TestSortedJoinStopWithResidual: the compiler never puts a residual on
// a join that carries the stop, but the executor's loop does not depend
// on that. The residual of the cardinality flavour is grafted onto the
// stopped plan and drops one whole stream of three: the first round of
// ten candidates keeps six or seven, the second takes everything else,
// and the page is the ten newest articles of the two streams left.
func TestSortedJoinStopWithResidual(t *testing.T) {
	s := newRoundTripFixture(t)
	const sql = `SELECT a.id, a.ts FROM subscriptions s JOIN articles a
		WHERE a.author = s.target AND s.owner = ? AND s.approved = true%s
		ORDER BY a.ts DESC LIMIT 10`
	filtered, err := s.Prepare(fmt.Sprintf(sql, ` AND a.author <> 'u02'`))
	if err != nil {
		t.Fatal(err)
	}
	stopped, err := s.Prepare(fmt.Sprintf(sql, ``))
	if err != nil {
		t.Fatal(err)
	}
	from := filtered.Plan().RemoteOps()[1].(*core.SortedIndexJoin)
	join := stopped.Plan().RemoteOps()[1].(*core.SortedIndexJoin)
	if len(from.Residual) != 1 || join.Stop != 10 || len(join.Residual) != 0 {
		t.Fatalf("unexpected plans:\n%s\n%s", filtered.Plan().Explain(), stopped.Plan().Explain())
	}
	join.Residual = from.Residual
	for _, strat := range []exec.Strategy{exec.Lazy, exec.Simple, exec.Parallel} {
		s.SetStrategy(strat)
		want, err := filtered.Execute(s, value.Str("u00"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := stopped.Execute(s, value.Str("u00"))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != 10 || fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
			t.Errorf("%v: stopped join with the residual returns %v, the cardinality flavour %v", strat, got.Rows, want.Rows)
		}
	}
}

// TestDerefRunAllocations pins what one exec.Run allocates when it
// dereferences a secondary index: a token-index search, alone and joined
// through a foreign key (TPC-W's searchByTitle), at 10 and at 50 matching
// entries, on one warm Ctx. Every key an operator sends — the scan's
// bounds, the record keys of its dereference, the join's record keys —
// is carved from the Ctx's scratch, and so are what the store returns and
// the headers of the rows the scan and the join hand on, and the values
// the dereference decodes; no entry is decoded and a decoded row's
// strings land in its operator's one arena, so 40 more entries cost
// nothing per entry or per kept row, scan and join alike. Until the store read into the scratch, Client.Scan's
// result outgrew its 16-entry pre-size twice on the way to 50: two
// allocations more at 50 than at 10.
func TestDerefRunAllocations(t *testing.T) {
	cluster := kvstore.New(kvstore.Config{Nodes: 1, ReplicationFactor: 1, Seed: 2}, nil)
	s := New(cluster).Session(nil)
	for _, ddl := range []string{
		`CREATE TABLE author (a_id INT, a_name VARCHAR(20), PRIMARY KEY (a_id))`,
		`CREATE TABLE item (i_id INT, i_title VARCHAR(60), i_a_id INT, i_cost INT,
			PRIMARY KEY (i_id), FOREIGN KEY (i_a_id) REFERENCES author)`,
	} {
		if err := s.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for a := 0; a < 5; a++ {
		if err := s.Exec(`INSERT INTO author VALUES (?, ?)`, value.Int(int64(a)), value.Str(fmt.Sprintf("author %d", a))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		word := "fifty"
		if i < 10 {
			word = "ten"
		}
		if err := s.Exec(`INSERT INTO item VALUES (?, ?, ?, 7)`,
			value.Int(int64(i)), value.Str(fmt.Sprintf("%s volume %02d", word, i)), value.Int(int64(i%5))); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name, sql string
		at10      float64 // allocations at 10 entries, and at 50
	}{
		{name: "token scan", at10: 5, // 12 until the keys and the store's results came from the scratch, 7 until the row headers did, 6 until the dereference's values did
			sql: `SELECT i_title, i_id FROM item WHERE i_title CONTAINS ? ORDER BY i_title LIMIT 50`},
		{name: "token scan + fk join", at10: 6, // 16, 8 and 7 until then
			sql: `SELECT i_title, i_id, a_name FROM item JOIN author
			      WHERE i_a_id = a_id AND i_title CONTAINS ? ORDER BY i_title LIMIT 50`},
	} {
		q, err := s.Prepare(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		run := func(word string, rows int) float64 {
			ctx := &exec.Ctx{Client: s.Client(), Params: []value.Value{value.Str(word)}, Strategy: exec.Parallel}
			return testing.AllocsPerRun(200, func() {
				res, err := exec.Run(q.Plan(), ctx)
				if err != nil || len(res.Rows) != rows {
					t.Fatalf("%s(%s): %v rows, err %v", tc.name, word, res, err)
				}
			})
		}
		at10, at50 := run("ten", 10), run("fifty", 50)
		if at10 != tc.at10 || at50 != tc.at10 {
			t.Errorf("%s: %v allocs at 10 entries, %v at 50; pinned at %v for both",
				tc.name, at10, at50, tc.at10)
		}
	}
}
