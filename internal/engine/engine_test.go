package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"piql/internal/core"
	"piql/internal/exec"
	"piql/internal/index"
	"piql/internal/kvstore"
	"piql/internal/value"
)

func newTestEngine(t testing.TB, nodes int) (*Engine, *Session) {
	t.Helper()
	cluster := kvstore.New(kvstore.Config{Nodes: nodes, ReplicationFactor: 2, Seed: 42}, nil)
	eng := New(cluster)
	s := eng.Session(nil)
	for _, ddl := range []string{
		`CREATE TABLE users (
			username VARCHAR(20), password VARCHAR(20), hometown VARCHAR(30),
			PRIMARY KEY (username))`,
		`CREATE TABLE subscriptions (
			owner VARCHAR(20), target VARCHAR(20), approved BOOLEAN,
			PRIMARY KEY (owner, target),
			FOREIGN KEY (target) REFERENCES users,
			CARDINALITY LIMIT 100 (owner))`,
		`CREATE TABLE thoughts (
			owner VARCHAR(20), timestamp INT, text VARCHAR(140),
			PRIMARY KEY (owner, timestamp),
			CARDINALITY LIMIT 200 (owner))`,
	} {
		if err := s.Exec(ddl); err != nil {
			t.Fatalf("DDL: %v", err)
		}
	}
	return eng, s
}

// loadSCADr populates a small deterministic social graph.
func loadSCADr(t testing.TB, s *Session, users, thoughtsPer, subsPer int) {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	for u := 0; u < users; u++ {
		name := fmt.Sprintf("user%03d", u)
		if err := s.Exec(`INSERT INTO users VALUES (?, ?, ?)`,
			value.Str(name), value.Str("pw"), value.Str("Berkeley")); err != nil {
			t.Fatalf("insert user: %v", err)
		}
		for i := 0; i < thoughtsPer; i++ {
			if err := s.Exec(`INSERT INTO thoughts VALUES (?, ?, ?)`,
				value.Str(name), value.Int(int64(1000+i)),
				value.Str(fmt.Sprintf("thought %d of %s", i, name))); err != nil {
				t.Fatalf("insert thought: %v", err)
			}
		}
	}
	for u := 0; u < users; u++ {
		name := fmt.Sprintf("user%03d", u)
		seen := map[int]bool{u: true}
		for len(seen) <= subsPer && len(seen) < users {
			v := r.Intn(users)
			if seen[v] {
				continue
			}
			seen[v] = true
			if err := s.Exec(`INSERT INTO subscriptions VALUES (?, ?, ?)`,
				value.Str(name), value.Str(fmt.Sprintf("user%03d", v)), value.Bool(v%5 != 0)); err != nil {
				t.Fatalf("insert subscription: %v", err)
			}
		}
	}
}

func TestFindUser(t *testing.T) {
	_, s := newTestEngine(t, 4)
	loadSCADr(t, s, 20, 3, 4)
	res, err := s.Query(`SELECT username, hometown FROM users WHERE username = ?`, value.Str("user007"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "user007" || res.Rows[0][1].S != "Berkeley" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Names[1] != "hometown" {
		t.Fatalf("names = %v", res.Names)
	}
	// Missing user: empty result, not an error.
	res, err = s.Query(`SELECT username, hometown FROM users WHERE username = ?`, value.Str("nobody"))
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("rows = %v, err = %v", res.Rows, err)
	}
}

func TestRecentThoughtsOrderAndLimit(t *testing.T) {
	_, s := newTestEngine(t, 4)
	loadSCADr(t, s, 10, 25, 3)
	res, err := s.Query(`SELECT timestamp, text FROM thoughts WHERE owner = ? ORDER BY timestamp DESC LIMIT 10`,
		value.Str("user003"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	for i, row := range res.Rows {
		want := int64(1024 - i)
		if row[0].I != want {
			t.Fatalf("row %d timestamp = %d, want %d", i, row[0].I, want)
		}
	}
}

// TestThoughtstreamMatchesReference executes the headline query and
// compares against a brute-force reference over the same data.
func TestThoughtstreamMatchesReference(t *testing.T) {
	_, s := newTestEngine(t, 5)
	const users, thoughtsPer, subsPer = 30, 15, 8
	loadSCADr(t, s, users, thoughtsPer, subsPer)

	q, err := s.Prepare(`
		SELECT thoughts.owner, thoughts.timestamp, thoughts.text
		FROM subscriptions s JOIN thoughts
		WHERE thoughts.owner = s.target AND s.owner = ? AND s.approved = true
		ORDER BY thoughts.timestamp DESC LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}

	// Brute-force reference from raw store contents.
	reference := func(me string) [][2]string {
		subs, _ := s.Query(`SELECT target, approved FROM subscriptions WHERE owner = ?`, value.Str(me))
		type tr struct {
			owner string
			ts    int64
			text  string
		}
		var all []tr
		for _, sub := range subs.Rows {
			if !sub[1].Truthy() {
				continue
			}
			th, _ := s.Query(`SELECT owner, timestamp, text FROM thoughts WHERE owner = ? ORDER BY timestamp DESC LIMIT 100`,
				value.Str(sub[0].S))
			for _, row := range th.Rows {
				all = append(all, tr{row[0].S, row[1].I, row[2].S})
			}
		}
		sort.SliceStable(all, func(i, j int) bool {
			if all[i].ts != all[j].ts {
				return all[i].ts > all[j].ts
			}
			return all[i].owner < all[j].owner
		})
		if len(all) > 10 {
			all = all[:10]
		}
		out := make([][2]string, len(all))
		for i, e := range all {
			out[i] = [2]string{e.owner, fmt.Sprint(e.ts)}
		}
		return out
	}

	for u := 0; u < users; u += 3 {
		me := fmt.Sprintf("user%03d", u)
		res, err := q.Execute(s, value.Str(me))
		if err != nil {
			t.Fatal(err)
		}
		want := reference(me)
		if len(res.Rows) != len(want) {
			t.Fatalf("%s: got %d rows, want %d", me, len(res.Rows), len(want))
		}
		for i, row := range res.Rows {
			if row[1].I != mustInt(want[i][1]) {
				t.Fatalf("%s row %d: ts %d, want %s (owner %s vs %s)", me, i, row[1].I, want[i][1], row[0].S, want[i][0])
			}
		}
	}
}

func mustInt(s string) int64 {
	var n int64
	fmt.Sscan(s, &n)
	return n
}

// TestAllStrategiesAgree: Lazy, Simple, and Parallel must produce
// identical results — they differ only in request patterns.
func TestAllStrategiesAgree(t *testing.T) {
	_, s := newTestEngine(t, 5)
	loadSCADr(t, s, 20, 10, 6)
	queries := []struct {
		sql    string
		params []value.Value
	}{
		{`SELECT * FROM users WHERE username = ?`, []value.Value{value.Str("user004")}},
		{`SELECT * FROM thoughts WHERE owner = ? ORDER BY timestamp DESC LIMIT 5`, []value.Value{value.Str("user004")}},
		{`SELECT thoughts.* FROM subscriptions s JOIN thoughts
		  WHERE thoughts.owner = s.target AND s.owner = ? AND s.approved = true
		  ORDER BY thoughts.timestamp DESC LIMIT 10`, []value.Value{value.Str("user004")}},
		{`SELECT u.* FROM subscriptions s JOIN users u
		  WHERE u.username = s.target AND s.owner = ?`, []value.Value{value.Str("user004")}},
	}
	for _, q := range queries {
		var results [][]value.Row
		for _, strat := range []exec.Strategy{exec.Lazy, exec.Simple, exec.Parallel} {
			s.SetStrategy(strat)
			res, err := s.Query(q.sql, q.params...)
			if err != nil {
				t.Fatalf("%s under %v: %v", q.sql, strat, err)
			}
			results = append(results, res.Rows)
		}
		for i := 1; i < len(results); i++ {
			if len(results[i]) != len(results[0]) {
				t.Fatalf("%s: strategy %d returned %d rows vs %d", q.sql, i, len(results[i]), len(results[0]))
			}
			for j := range results[i] {
				if value.CompareRows(results[i][j], results[0][j]) != 0 {
					t.Fatalf("%s: row %d differs across strategies", q.sql, j)
				}
			}
		}
	}
}

// TestOpBoundInvariant: executed key/value operations never exceed the
// compiler's static bound (the paper's core guarantee), measured on a
// single-node cluster where partition-walk slack is zero.
func TestOpBoundInvariant(t *testing.T) {
	cluster := kvstore.New(kvstore.Config{Nodes: 1, ReplicationFactor: 1, Seed: 1}, nil)
	eng := New(cluster)
	s := eng.Session(nil)
	for _, ddl := range []string{
		`CREATE TABLE users (username VARCHAR(20), password VARCHAR(20), hometown VARCHAR(30), PRIMARY KEY (username))`,
		`CREATE TABLE subscriptions (owner VARCHAR(20), target VARCHAR(20), approved BOOLEAN,
			PRIMARY KEY (owner, target), FOREIGN KEY (target) REFERENCES users, CARDINALITY LIMIT 100 (owner))`,
		`CREATE TABLE thoughts (owner VARCHAR(20), timestamp INT, text VARCHAR(140), PRIMARY KEY (owner, timestamp))`,
	} {
		if err := s.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	loadSCADr(t, s, 40, 30, 10)

	queries := []string{
		`SELECT * FROM users WHERE username = ?`,
		`SELECT * FROM thoughts WHERE owner = ? ORDER BY timestamp DESC LIMIT 10`,
		`SELECT thoughts.* FROM subscriptions s JOIN thoughts
		 WHERE thoughts.owner = s.target AND s.owner = ? AND s.approved = true
		 ORDER BY thoughts.timestamp DESC LIMIT 10`,
		`SELECT u.* FROM subscriptions s JOIN users u WHERE u.username = s.target AND s.owner = ?`,
		`SELECT COUNT(*) FROM subscriptions WHERE owner = ?`,
	}
	for _, sql := range queries {
		q, err := s.Prepare(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		bound := q.Plan().OpBound()
		for u := 0; u < 40; u += 7 {
			// The static bound holds for the batching executors; the
			// LazyExecutor deliberately issues one request per tuple
			// (Section 8.5) and is benchmarked, not bounded.
			for _, strat := range []exec.Strategy{exec.Simple, exec.Parallel} {
				s.SetStrategy(strat)
				s.Client().ResetOps()
				if _, err := q.Execute(s, value.Str(fmt.Sprintf("user%03d", u))); err != nil {
					t.Fatal(err)
				}
				if ops := s.Client().Ops(); ops > int64(bound) {
					t.Fatalf("%s (%v): executed %d ops, bound %d", sql, strat, ops, bound)
				}
			}
		}
	}
}

// TestOpsIndependentOfDatabaseSize: growing the database 8x must not
// change the operations a bounded query performs — scale independence
// made observable.
func TestOpsIndependentOfDatabaseSize(t *testing.T) {
	measure := func(users int) int64 {
		cluster := kvstore.New(kvstore.Config{Nodes: 1, ReplicationFactor: 1, Seed: 5}, nil)
		eng := New(cluster)
		s := eng.Session(nil)
		for _, ddl := range []string{
			`CREATE TABLE users (username VARCHAR(20), password VARCHAR(20), hometown VARCHAR(30), PRIMARY KEY (username))`,
			`CREATE TABLE subscriptions (owner VARCHAR(20), target VARCHAR(20), approved BOOLEAN,
				PRIMARY KEY (owner, target), FOREIGN KEY (target) REFERENCES users, CARDINALITY LIMIT 100 (owner))`,
			`CREATE TABLE thoughts (owner VARCHAR(20), timestamp INT, text VARCHAR(140), PRIMARY KEY (owner, timestamp))`,
		} {
			if err := s.Exec(ddl); err != nil {
				t.Fatal(err)
			}
		}
		loadSCADr(t, s, users, 20, 10)
		q, err := s.Prepare(`SELECT thoughts.* FROM subscriptions s JOIN thoughts
			WHERE thoughts.owner = s.target AND s.owner = ? AND s.approved = true
			ORDER BY thoughts.timestamp DESC LIMIT 10`)
		if err != nil {
			t.Fatal(err)
		}
		s.Client().ResetOps()
		if _, err := q.Execute(s, value.Str("user005")); err != nil {
			t.Fatal(err)
		}
		return s.Client().Ops()
	}
	small, large := measure(15), measure(120)
	if large > small+1 { // +1 tolerance for replica/partition jitter
		t.Fatalf("ops grew with database size: %d -> %d", small, large)
	}
}

func TestPaginationFullTraversal(t *testing.T) {
	_, s := newTestEngine(t, 4)
	loadSCADr(t, s, 5, 47, 2)
	q, err := s.Prepare(`SELECT timestamp FROM thoughts WHERE owner = ? ORDER BY timestamp DESC PAGINATE 10`)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := q.Paginate(value.Str("user002"))
	if err != nil {
		t.Fatal(err)
	}
	var all []int64
	pages := 0
	for !cur.Done() {
		res, err := cur.Next(s)
		if err != nil {
			t.Fatal(err)
		}
		if res == nil {
			break
		}
		if len(res.Rows) > 10 {
			t.Fatalf("page has %d rows", len(res.Rows))
		}
		for _, row := range res.Rows {
			all = append(all, row[0].I)
		}
		pages++
		if pages > 10 {
			t.Fatal("cursor did not terminate")
		}
	}
	if len(all) != 47 {
		t.Fatalf("traversed %d thoughts, want 47", len(all))
	}
	for i := range all {
		if all[i] != int64(1046-i) {
			t.Fatalf("position %d = %d, want %d", i, all[i], 1046-i)
		}
	}
}

// TestPaginationLazyStrategy pages the same cursor query under the
// LazyExecutor, whose tuple-at-a-time range walk advances a successor
// key per tuple in one reused buffer — this pins the results staying
// identical to the batched strategies across page boundaries, where a
// stale or clobbered buffer would skip or repeat tuples.
func TestPaginationLazyStrategy(t *testing.T) {
	_, s := newTestEngine(t, 4)
	loadSCADr(t, s, 5, 47, 2)
	q, err := s.Prepare(`SELECT timestamp FROM thoughts WHERE owner = ? ORDER BY timestamp DESC PAGINATE 10`)
	if err != nil {
		t.Fatal(err)
	}
	s.SetStrategy(exec.Lazy)
	cur, err := q.Paginate(value.Str("user002"))
	if err != nil {
		t.Fatal(err)
	}
	var all []int64
	for pages := 0; !cur.Done(); pages++ {
		if pages > 10 {
			t.Fatal("cursor did not terminate")
		}
		res, err := cur.Next(s)
		if err != nil {
			t.Fatal(err)
		}
		if res == nil {
			break
		}
		for _, row := range res.Rows {
			all = append(all, row[0].I)
		}
	}
	if len(all) != 47 {
		t.Fatalf("lazy traversal saw %d thoughts, want 47", len(all))
	}
	for i := range all {
		if all[i] != int64(1046-i) {
			t.Fatalf("lazy position %d = %d, want %d", i, all[i], 1046-i)
		}
	}
}

// TestCursorSerializationAcrossSessions ships a serialized cursor to a
// "different application server" (fresh session) and resumes.
func TestCursorSerializationAcrossSessions(t *testing.T) {
	eng, s := newTestEngine(t, 4)
	loadSCADr(t, s, 5, 25, 2)
	q, err := s.Prepare(`SELECT timestamp FROM thoughts WHERE owner = ? ORDER BY timestamp DESC PAGINATE 10`)
	if err != nil {
		t.Fatal(err)
	}
	cur, _ := q.Paginate(value.Str("user001"))
	first, err := cur.Next(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Rows) != 10 {
		t.Fatalf("first page = %d rows", len(first.Rows))
	}
	blob := cur.Serialize()
	if len(blob) > 4096 {
		t.Fatalf("serialized cursor is %d bytes; should be small", len(blob))
	}

	s2 := eng.Session(nil)
	cur2, err := eng.RestoreCursor(s2, blob)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cur2.Next(s2)
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Rows) != 10 || second.Rows[0][0].I != 1014 {
		t.Fatalf("second page starts at %v, want 1014", second.Rows[0])
	}
	// Corrupt cursors are rejected.
	if _, err := eng.RestoreCursor(s2, []byte{99}); err == nil {
		t.Fatal("corrupt cursor accepted")
	}
	if _, err := eng.RestoreCursor(s2, blob[:len(blob)-3]); err == nil {
		t.Fatal("truncated cursor accepted")
	}
}

// TestPaginatedThoughtstream pages through the SortedIndexJoin query.
func TestPaginatedThoughtstream(t *testing.T) {
	_, s := newTestEngine(t, 4)
	loadSCADr(t, s, 12, 12, 5)
	q, err := s.Prepare(`
		SELECT thoughts.owner, thoughts.timestamp FROM subscriptions s JOIN thoughts
		WHERE thoughts.owner = s.target AND s.owner = ? AND s.approved = true
		ORDER BY thoughts.timestamp DESC PAGINATE 7`)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: full result via a large LIMIT query.
	full, err := s.Query(`
		SELECT thoughts.owner, thoughts.timestamp FROM subscriptions s JOIN thoughts
		WHERE thoughts.owner = s.target AND s.owner = ? AND s.approved = true
		ORDER BY thoughts.timestamp DESC LIMIT 100`, value.Str("user006"))
	if err != nil {
		t.Fatal(err)
	}
	cur, _ := q.Paginate(value.Str("user006"))
	var paged []value.Row
	for !cur.Done() {
		res, err := cur.Next(s)
		if err != nil {
			t.Fatal(err)
		}
		if res == nil {
			break
		}
		paged = append(paged, res.Rows...)
	}
	if len(paged) != len(full.Rows) {
		t.Fatalf("paged %d rows, reference %d", len(paged), len(full.Rows))
	}
	for i := range paged {
		if paged[i][1].I != full.Rows[i][1].I {
			t.Fatalf("row %d: paged ts %d vs full ts %d", i, paged[i][1].I, full.Rows[i][1].I)
		}
	}
}

func TestCardinalityConstraintEnforced(t *testing.T) {
	_, s := newTestEngine(t, 3)
	// Prepare a query so the subscriptions-by-owner index exists (the
	// enforcement path uses it when present).
	if err := s.Exec(`INSERT INTO users VALUES ('hub', 'pw', 'SF')`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := s.Exec(`INSERT INTO subscriptions VALUES (?, ?, true)`,
			value.Str("hub"), value.Str(fmt.Sprintf("t%03d", i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	err := s.Exec(`INSERT INTO subscriptions VALUES ('hub', 'one-too-many', true)`)
	var card *index.ErrCardinalityExceeded
	if !errors.As(err, &card) {
		t.Fatalf("101st subscription: err = %v, want ErrCardinalityExceeded", err)
	}
	// The violating row must be rolled back.
	res, err := s.Query(`SELECT COUNT(*) FROM subscriptions WHERE owner = ?`, value.Str("hub"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 100 {
		t.Fatalf("count after rollback = %d", res.Rows[0][0].I)
	}
}

func TestDuplicatePrimaryKeyRejected(t *testing.T) {
	_, s := newTestEngine(t, 3)
	if err := s.Exec(`INSERT INTO users VALUES ('bob', 'pw', 'SF')`); err != nil {
		t.Fatal(err)
	}
	err := s.Exec(`INSERT INTO users VALUES ('bob', 'other', 'LA')`)
	var dup *index.ErrDuplicateKey
	if !errors.As(err, &dup) {
		t.Fatalf("err = %v, want ErrDuplicateKey", err)
	}
	// Original row untouched.
	res, _ := s.Query(`SELECT password FROM users WHERE username = 'bob'`)
	if res.Rows[0][0].S != "pw" {
		t.Fatalf("row overwritten: %v", res.Rows[0])
	}
}

func TestUpdateMaintainsIndexes(t *testing.T) {
	_, s := newTestEngine(t, 3)
	if err := s.Exec(`INSERT INTO users VALUES ('ann', 'pw', 'SF')`); err != nil {
		t.Fatal(err)
	}
	// Force a secondary index on hometown via a scan query.
	if _, err := s.Query(`SELECT * FROM users WHERE hometown = 'SF' LIMIT 5`); err != nil {
		t.Fatal(err)
	}
	if err := s.Exec(`UPDATE users SET hometown = 'LA' WHERE username = 'ann'`); err != nil {
		t.Fatal(err)
	}
	res, _ := s.Query(`SELECT hometown FROM users WHERE username = 'ann'`)
	if res.Rows[0][0].S != "LA" {
		t.Fatalf("hometown = %v", res.Rows[0][0])
	}
	// The index reflects the update: found under LA, gone from SF.
	la, _ := s.Query(`SELECT username FROM users WHERE hometown = 'LA' LIMIT 5`)
	if len(la.Rows) != 1 || la.Rows[0][0].S != "ann" {
		t.Fatalf("LA index scan = %v", la.Rows)
	}
	sf, _ := s.Query(`SELECT username FROM users WHERE hometown = 'SF' LIMIT 5`)
	if len(sf.Rows) != 0 {
		t.Fatalf("stale SF index entry: %v", sf.Rows)
	}
	if err := s.Exec(`DELETE FROM users WHERE username = 'ann'`); err != nil {
		t.Fatal(err)
	}
	res, _ = s.Query(`SELECT * FROM users WHERE username = 'ann'`)
	if len(res.Rows) != 0 {
		t.Fatal("row survived DELETE")
	}
}

func TestTokenSearchEndToEnd(t *testing.T) {
	cluster := kvstore.New(kvstore.Config{Nodes: 3, ReplicationFactor: 1, Seed: 9}, nil)
	eng := New(cluster)
	s := eng.Session(nil)
	if err := s.Exec(`CREATE TABLE items (i_id INT, i_title VARCHAR(60), PRIMARY KEY (i_id))`); err != nil {
		t.Fatal(err)
	}
	titles := []string{
		"The Go Programming Language",
		"Designing Data-Intensive Applications",
		"Programming Pearls",
		"The Art of Computer Programming",
		"Clean Code",
	}
	for i, title := range titles {
		if err := s.Exec(`INSERT INTO items VALUES (?, ?)`, value.Int(int64(i)), value.Str(title)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Query(`SELECT i_title FROM items WHERE i_title CONTAINS ? ORDER BY i_title LIMIT 50`,
		value.Str("programming"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Sorted by title.
	for i := 1; i < len(res.Rows); i++ {
		if strings.Compare(res.Rows[i-1][0].S, res.Rows[i][0].S) > 0 {
			t.Fatalf("titles unsorted: %v", res.Rows)
		}
	}
	// Case-insensitive token match; late inserts visible (index maintained).
	if err := s.Exec(`INSERT INTO items VALUES (99, 'More PROGRAMMING Wisdom')`); err != nil {
		t.Fatal(err)
	}
	res, _ = s.Query(`SELECT i_title FROM items WHERE i_title CONTAINS ? ORDER BY i_title LIMIT 50`, value.Str("Programming"))
	if len(res.Rows) != 4 {
		t.Fatalf("after insert: rows = %v", res.Rows)
	}
}

func TestSubscriberIntersection(t *testing.T) {
	_, s := newTestEngine(t, 4)
	loadSCADr(t, s, 30, 2, 10)
	res, err := s.Query(`
		SELECT owner FROM subscriptions
		WHERE target = ? AND owner IN (?, ?, ?)`,
		value.Str("user010"), value.Str("user001"), value.Str("user002"), value.Str("user003"))
	if err != nil {
		t.Fatal(err)
	}
	// Verify against per-pair lookups.
	want := 0
	for _, friend := range []string{"user001", "user002", "user003"} {
		r, _ := s.Query(`SELECT * FROM subscriptions WHERE owner = ? AND target = ?`,
			value.Str(friend), value.Str("user010"))
		want += len(r.Rows)
	}
	if len(res.Rows) != want {
		t.Fatalf("intersection = %d rows, want %d", len(res.Rows), want)
	}
}

func TestGroupByAggregate(t *testing.T) {
	_, s := newTestEngine(t, 3)
	loadSCADr(t, s, 6, 9, 3)
	res, err := s.Query(`
		SELECT target, COUNT(*) FROM subscriptions WHERE owner = ? GROUP BY target`,
		value.Str("user001"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[1].I != 1 {
			t.Fatalf("count = %v", row)
		}
	}
	// MIN/MAX/AVG/SUM over thoughts timestamps.
	res, err = s.Query(`
		SELECT COUNT(*), MIN(timestamp), MAX(timestamp), AVG(timestamp), SUM(timestamp)
		FROM thoughts WHERE owner = ?`, value.Str("user002"))
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row[0].I != 9 || row[1].I != 1000 || row[2].I != 1008 {
		t.Fatalf("aggs = %v", row)
	}
	if row[3].Float() != 1004 || row[4].I != 9036 {
		t.Fatalf("avg/sum = %v", row)
	}
}

func TestGCDanglingEntries(t *testing.T) {
	eng, s := newTestEngine(t, 3)
	if err := s.Exec(`INSERT INTO users VALUES ('gcu', 'pw', 'SF')`); err != nil {
		t.Fatal(err)
	}
	// Build a hometown secondary index, then delete the record *directly*
	// from the store, bypassing maintenance — simulating a crash between
	// protocol steps.
	if _, err := s.Query(`SELECT * FROM users WHERE hometown = 'SF' LIMIT 5`); err != nil {
		t.Fatal(err)
	}
	tab := eng.Catalog().Table("users")
	s.Client().Delete(index.RecordKeyFromPK(tab, value.Row{value.Str("gcu")}))

	// The dangling entry is invisible to queries (deref skips it)...
	res, err := s.Query(`SELECT * FROM users WHERE hometown = 'SF' LIMIT 5`)
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("dangling entry visible: %v, %v", res.Rows, err)
	}
	// ...and GC removes it.
	var secondary = 0
	for _, ix := range eng.Catalog().Indexes("users") {
		if ix.Primary {
			continue
		}
		n, err := index.NewMaintainer(eng.Catalog()).GCDangling(s.Client(), ix)
		if err != nil {
			t.Fatal(err)
		}
		secondary += n
	}
	if secondary == 0 {
		t.Fatal("GC collected nothing")
	}
}

func TestPrepareRejectsUnbounded(t *testing.T) {
	_, s := newTestEngine(t, 3)
	_, err := s.Prepare(`SELECT * FROM thoughts WHERE text = 'x'`)
	if err == nil || !strings.Contains(err.Error(), "not scale-independent") {
		t.Fatalf("err = %v", err)
	}
}

func TestInequalityRange(t *testing.T) {
	_, s := newTestEngine(t, 3)
	loadSCADr(t, s, 4, 30, 2)
	res, err := s.Query(`
		SELECT timestamp FROM thoughts
		WHERE owner = ? AND timestamp > 1020 AND timestamp <= 1025
		ORDER BY timestamp DESC LIMIT 20`, value.Str("user001"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for i, row := range res.Rows {
		if row[0].I != int64(1025-i) {
			t.Fatalf("row %d = %v", i, row)
		}
	}
}

// newEventTable holds ts 0–9 in a table whose primary key is not ts, so
// ORDER BY ts LIMIT k is a limit-hint scan of a secondary index on ts.
func newEventTable(t *testing.T) *Session {
	t.Helper()
	s := New(kvstore.New(kvstore.Config{Nodes: 2, ReplicationFactor: 1, Seed: 3}, nil)).Session(nil)
	if err := s.Exec(`CREATE TABLE ev (id INT, ts INT, PRIMARY KEY (id))`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Exec(`INSERT INTO ev VALUES (?, ?)`, value.Int(int64(100+i)), value.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestLimitHintScanKeepsTighterBound: two constant bounds on one side of
// a limit-hint scan's range column scan from the tighter one — at equal
// values from the exclusive one — whichever comes first in the WHERE.
// Until they did, the last one written won and the page read past the
// other: `ts > 5 AND ts > 1` returned 2, 3, 4.
func TestLimitHintScanKeepsTighterBound(t *testing.T) {
	s := newEventTable(t)
	for _, tc := range []struct{ where, order, want, explain string }{
		{"ts > 5 AND ts > 1", "ASC", "[(6) (7) (8)]", "range>5"},
		{"ts > 1 AND ts > 5", "ASC", "[(6) (7) (8)]", "range>5"},
		{"ts < 3 AND ts < 8", "DESC", "[(2) (1) (0)]", "range<3"},
		{"ts < 8 AND ts <= 2", "DESC", "[(2) (1) (0)]", "range<=2"},
		{"ts >= 4 AND ts > 4", "ASC", "[(5) (6) (7)]", "range>4"},
		{"ts > 4 AND ts >= 4", "ASC", "[(5) (6) (7)]", "range>4"},
		{"ts <= 6 AND ts < 6", "DESC", "[(5) (4) (3)]", "range<6"},
		{"ts >= 2 AND ts >= 7 AND ts < 9 AND ts <= 8", "ASC", "[(7) (8)]", "range>=7"},
	} {
		sql := fmt.Sprintf("SELECT ts FROM ev WHERE %s ORDER BY ts %s LIMIT 3", tc.where, tc.order)
		q, err := s.Prepare(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if expl := q.Plan().Explain(); !strings.Contains(expl, tc.explain) {
			t.Errorf("%s: plan does not scan %s:\n%s", sql, tc.explain, expl)
		}
		res, err := q.Execute(s)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if got := fmt.Sprint(res.Rows); got != tc.want {
			t.Errorf("%s: %s, want %s", sql, got, tc.want)
		}
	}
}

// TestLimitHintScanRefusesParameterPair: with a parameter among two
// bounds on one side of the range column, which is tighter is not known
// until run time, and the one dropped could not stay as a residual under
// the limit hint, so Prepare refuses and names the column. One bound per
// side, parameter or not, still prepares.
func TestLimitHintScanRefusesParameterPair(t *testing.T) {
	s := newEventTable(t)
	for _, where := range []string{"ts > ? AND ts > 1", "ts >= 1 AND ts > ?", "ts < ? AND ts <= ?"} {
		_, err := s.Prepare(fmt.Sprintf("SELECT ts FROM ev WHERE %s ORDER BY ts LIMIT 3", where))
		var nsi *core.NotScaleIndependentError
		if !errors.As(err, &nsi) || !strings.Contains(err.Error(), "column ev.ts") {
			t.Errorf("%s: err = %v, want a refusal naming column ev.ts", where, err)
		}
	}
	res, err := s.Query(`SELECT ts FROM ev WHERE ts > ? AND ts < 8 ORDER BY ts LIMIT 3`, value.Int(5))
	if err != nil || fmt.Sprint(res.Rows) != "[(6) (7)]" {
		t.Fatalf("one bound a side: %v (err %v)", res, err)
	}
}

// TestRepeatedINValueNamesOneRow: an IN list on a primary-key column
// that names one value twice — as two literals, or as a literal and a
// parameter bound to it — names one row, and returns it once: to a plain
// lookup, to COUNT(*), through a primary-key cross product, and as the
// outer side of a join, which would otherwise fetch each match twice.
func TestRepeatedINValueNamesOneRow(t *testing.T) {
	_, s := newTestEngine(t, 3)
	loadSCADr(t, s, 10, 2, 3)
	subs, err := s.Query(`SELECT target FROM subscriptions WHERE owner = 'user001'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs.Rows) != 3 {
		t.Fatalf("user001 has %d subscriptions, want 3", len(subs.Rows))
	}
	t1, t2 := subs.Rows[0][0], subs.Rows[1][0]
	for _, tc := range []struct {
		sql    string
		params []value.Value
		rows   int
		count  int64  // COUNT(*)'s one value, or -1
		first  string // the first column of the rows in order, if set
	}{
		{`SELECT * FROM users WHERE username IN ('user001', 'user001')`, nil, 1, -1, ""},
		{`SELECT * FROM users WHERE username IN ('user001', ?)`, []value.Value{value.Str("user001")}, 1, -1, ""},
		{`SELECT * FROM users WHERE username IN ('user001', ?, 'user002', ?)`,
			[]value.Value{value.Str("user002"), value.Str("user001")}, 2, -1, "user001 user002"},
		{`SELECT COUNT(*) FROM users WHERE username IN ('user001', 'user001')`, nil, 1, 1, ""},
		{`SELECT * FROM subscriptions WHERE owner IN ('user001', 'user001') AND target IN (?, ?, ?)`,
			[]value.Value{t1, t2, t1}, 2, -1, ""},
		{`SELECT s.target FROM users u JOIN subscriptions s
			WHERE s.owner = u.username AND u.username IN ('user001', 'user001')`, nil, 3, -1, ""},
	} {
		res, err := s.Query(tc.sql, tc.params...)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if len(res.Rows) != tc.rows {
			t.Errorf("%s: %d rows, want %d: %v", tc.sql, len(res.Rows), tc.rows, res.Rows)
		}
		if tc.count >= 0 && (len(res.Rows) != 1 || res.Rows[0][0].I != tc.count) {
			t.Errorf("%s: COUNT(*) = %v, want %d", tc.sql, res.Rows, tc.count)
		}
		if tc.first != "" {
			var got []string
			for _, row := range res.Rows {
				got = append(got, row[0].S)
			}
			if strings.Join(got, " ") != tc.first {
				t.Errorf("%s: rows %v, want the first of each key, in list order: %s", tc.sql, got, tc.first)
			}
		}
	}
}
