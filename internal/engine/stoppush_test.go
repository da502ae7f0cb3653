package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"piql/internal/core"
	"piql/internal/exec"
	"piql/internal/kvstore"
	"piql/internal/value"
)

// newStopFixture: "me" follows o1 and o2; each owns thoughts ts 0..11,
// the newest five of them in the invisible category 0, the rest in the
// visible category 1. thoughts.owner references users in fact but not by
// declaration.
func newStopFixture(t testing.TB, thoughtsCard string) *Session {
	t.Helper()
	cluster := kvstore.New(kvstore.Config{Nodes: 1, ReplicationFactor: 1, Seed: 5}, nil)
	s := New(cluster).Session(nil)
	for _, ddl := range []string{
		`CREATE TABLE cats (cid INT, visible BOOLEAN, PRIMARY KEY (cid))`,
		`CREATE TABLE users (username VARCHAR(20), PRIMARY KEY (username))`,
		`CREATE TABLE subs (owner VARCHAR(20), target VARCHAR(20), PRIMARY KEY (owner, target),
			CARDINALITY LIMIT 10 (owner))`,
		`CREATE TABLE thoughts (owner VARCHAR(20), ts INT, cid INT, PRIMARY KEY (owner, ts),
			FOREIGN KEY (cid) REFERENCES cats` + thoughtsCard + `)`,
		`INSERT INTO cats VALUES (0, false)`,
		`INSERT INTO cats VALUES (1, true)`,
		`INSERT INTO users VALUES ('o1')`,
		`INSERT INTO users VALUES ('o2')`,
		`INSERT INTO subs VALUES ('me', 'o1')`,
		`INSERT INTO subs VALUES ('me', 'o2')`,
	} {
		if err := s.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for _, owner := range []string{"o1", "o2"} {
		for ts := 0; ts < 12; ts++ {
			cid := 1
			if ts >= 7 {
				cid = 0
			}
			if err := s.Exec(`INSERT INTO thoughts VALUES (?, ?, ?)`,
				value.Str(owner), value.Int(int64(ts)), value.Int(int64(cid))); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

// TestStopIsNoFetchLimitUnderReductiveJoin: the five newest thoughts of
// every owner are filtered out by the join above, so a fetch capped at
// the query's LIMIT 5 sees only rows the join drops and returns an empty
// page where five rows qualify.
func TestStopIsNoFetchLimitUnderReductiveJoin(t *testing.T) {
	const streamSQL = `SELECT thoughts.ts FROM subs s JOIN thoughts JOIN cats c
		WHERE thoughts.owner = s.target AND s.owner = ? AND c.cid = thoughts.cid AND c.visible = true
		ORDER BY thoughts.ts DESC LIMIT 5`
	const scanSQL = `SELECT t.ts FROM thoughts t JOIN cats c
		WHERE t.owner = ? AND c.cid = t.cid AND c.visible = true
		ORDER BY t.ts DESC LIMIT 5`

	// No cardinality on thoughts: nothing but the stop could bound the
	// join's fetch, and the stop may not.
	var nsi *core.NotScaleIndependentError
	if _, err := newStopFixture(t, "").Prepare(streamSQL); !errors.As(err, &nsi) {
		t.Fatalf("sorted join under a filtering join, no cardinality: err = %v, want NotScaleIndependentError", err)
	}

	s := newStopFixture(t, ", CARDINALITY LIMIT 50 (owner)")
	for _, tc := range []struct {
		name, sql, arg string
		want           []int64
	}{
		{"sorted join", streamSQL, "me", []int64{6, 6, 5, 5, 4}},
		{"base scan", scanSQL, "o1", []int64{6, 5, 4, 3, 2}},
	} {
		q, err := s.Prepare(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, strat := range []exec.Strategy{exec.Lazy, exec.Simple, exec.Parallel} {
			s.SetStrategy(strat)
			res, err := q.Execute(s, value.Str(tc.arg))
			if err != nil {
				t.Fatalf("%s (%v): %v", tc.name, strat, err)
			}
			var got []int64
			for _, row := range res.Rows {
				got = append(got, row[0].I)
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("%s (%v): ts = %v, want %v\n%s", tc.name, strat, got, tc.want, q.Plan().Explain())
			}
		}
	}
}

// TestStopIsNoFetchLimitUnderAggregate: LIMIT 2 above GROUP BY asks for
// two groups, not for two rows to count. Every owner has 5 thoughts in
// category 0 and 7 in category 1; a fetch capped at the stop counts the
// first two entries of each stream and never reaches category 1.
func TestStopIsNoFetchLimitUnderAggregate(t *testing.T) {
	const streamSQL = `SELECT thoughts.cid, COUNT(*) FROM subs s JOIN thoughts
		WHERE thoughts.owner = s.target AND s.owner = ?
		GROUP BY thoughts.cid ORDER BY thoughts.cid LIMIT 2`
	const scanSQL = `SELECT cid, COUNT(*) FROM thoughts WHERE owner = ?
		GROUP BY cid ORDER BY cid LIMIT 2`

	unbounded := newStopFixture(t, "")
	for _, sql := range []string{streamSQL, scanSQL} {
		var nsi *core.NotScaleIndependentError
		if _, err := unbounded.Prepare(sql); !errors.As(err, &nsi) {
			t.Fatalf("%s\nno cardinality: err = %v, want NotScaleIndependentError", sql, err)
		}
	}

	s := newStopFixture(t, ", CARDINALITY LIMIT 50 (owner)")
	for _, tc := range []struct{ name, sql, arg, want string }{
		{"sorted join", streamSQL, "me", "[(0, 10) (1, 14)]"},
		{"base scan", scanSQL, "o1", "[(0, 5) (1, 7)]"},
	} {
		q, err := s.Prepare(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, strat := range []exec.Strategy{exec.Lazy, exec.Simple, exec.Parallel} {
			s.SetStrategy(strat)
			res, err := q.Execute(s, value.Str(tc.arg))
			if err != nil {
				t.Fatalf("%s (%v): %v", tc.name, strat, err)
			}
			if got := fmt.Sprint(res.Rows); got != tc.want {
				t.Errorf("%s (%v): %s, want %s\n%s", tc.name, strat, got, tc.want, q.Plan().Explain())
			}
		}
	}
}

// TestPaginateUnderFetchPastThePage: where the stop is no fetch limit the
// base scan fetches its whole cardinality-bounded section, and a cursor
// left at the last entry fetched resumes past every row the page did not
// keep — page 1, More, then an empty page. The cursor must stop at the
// last row kept: the pages, each cursor serialized and restored, add up
// to the unpaginated result.
func TestPaginateUnderFetchPastThePage(t *testing.T) {
	s := newStopFixture(t, ", CARDINALITY LIMIT 50 (owner)")
	for _, tc := range []struct {
		name, sql string
		want      int // rows that qualify
	}{
		{"join that filters", `SELECT t.ts FROM thoughts t JOIN cats c
			WHERE t.owner = ? AND c.cid = t.cid AND c.visible = true ORDER BY t.ts DESC`, 7},
		{"join on an undeclared foreign key", `SELECT t.ts FROM thoughts t JOIN users u
			WHERE t.owner = ? AND u.username = t.owner ORDER BY t.ts DESC`, 12},
		{"secondary index", `SELECT t.cid, t.ts FROM thoughts t JOIN users u
			WHERE t.owner = ? AND u.username = t.owner ORDER BY t.cid DESC, t.ts`, 12},
		{"residual on the scan", `SELECT ts FROM thoughts WHERE owner = ? AND cid = 1`, 7},
	} {
		full, err := s.Prepare(tc.sql + " LIMIT 50")
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		paged, err := s.Prepare(tc.sql + " PAGINATE 3")
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if expl := paged.Plan().Explain(); !strings.Contains(expl, "limitHint=card(50)") {
			t.Fatalf("%s: the scan's fetch is pinned to the page, the test needs one that is not:\n%s", tc.name, expl)
		}
		for _, strat := range []exec.Strategy{exec.Lazy, exec.Simple, exec.Parallel} {
			s.SetStrategy(strat)
			res, err := full.Execute(s, value.Str("o1"))
			if err != nil {
				t.Fatalf("%s (%v): %v", tc.name, strat, err)
			}
			if len(res.Rows) != tc.want {
				t.Fatalf("%s (%v): LIMIT returns %d rows, want %d", tc.name, strat, len(res.Rows), tc.want)
			}
			cur, err := paged.Paginate(value.Str("o1"))
			if err != nil {
				t.Fatal(err)
			}
			var got []value.Row
			for pages := 0; !cur.Done(); pages++ {
				if pages > tc.want {
					t.Fatalf("%s (%v): cursor does not terminate: %v", tc.name, strat, got)
				}
				page, err := cur.Next(s)
				if err != nil {
					t.Fatalf("%s (%v): %v", tc.name, strat, err)
				}
				got = append(got, page.Rows...)
				if cur, err = s.eng.RestoreCursor(s, cur.Serialize()); err != nil {
					t.Fatal(err)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(res.Rows) {
				t.Errorf("%s (%v): pages add up to %v, LIMIT returns %v", tc.name, strat, got, res.Rows)
			}
		}
	}
}
