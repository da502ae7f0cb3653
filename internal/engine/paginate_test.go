package engine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"piql/internal/exec"
	"piql/internal/index"
	"piql/internal/value"
)

// stopFixtureCard bounds thoughts per owner in the fixtures below.
const stopFixtureCard = ", CARDINALITY LIMIT 50 (owner)"

// TestPaginateEveryShape pages through every shape of plan that has a
// pager, under each strategy, the cursor serialized and restored on a
// fresh session between every two pages as an application server would:
// the pages add up to the unpaginated result row for row, none is longer
// than K, no cursor state comes back twice, and the cursor ends within a
// page per row plus one per dropped entry — a short page, even an empty
// one, does not end it, and a full last page does not make it loop.
func TestPaginateEveryShape(t *testing.T) {
	const (
		scan       = `SELECT ts FROM thoughts WHERE owner = ? ORDER BY ts DESC`
		fkJoin     = `SELECT t.ts FROM thoughts t JOIN cats c WHERE t.owner = ? AND c.cid = t.cid ORDER BY t.ts DESC`
		stream     = `SELECT thoughts.owner, thoughts.ts FROM subs s JOIN thoughts WHERE thoughts.owner = s.target AND s.owner = ?`
		byCategory = stream + ` ORDER BY thoughts.cid, thoughts.ts`
		// Two child rows join the same owner: two streams with one prefix.
		twice = `SELECT f.slot, thoughts.owner, thoughts.ts FROM follows f JOIN thoughts WHERE thoughts.owner = f.target AND f.owner = ?`
	)
	do := func(s *Session, sql string, params ...value.Value) {
		t.Helper()
		if err := s.Exec(sql, params...); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	followTwice := func(s *Session) {
		do(s, `CREATE TABLE follows (owner VARCHAR(20), slot INT, target VARCHAR(20), PRIMARY KEY (owner, slot),
			CARDINALITY LIMIT 10 (owner))`)
		for slot, target := range []string{"o1", "o1", "o2"} {
			do(s, `INSERT INTO follows VALUES ('me', ?, ?)`, value.Int(int64(slot+1)), value.Str(target))
		}
	}
	for _, tc := range []struct {
		name, sql, arg string
		k              int
		rows, dropped  int // rows that qualify; entries fetched and dropped on the way
		plan           string
		prep           func(s *Session)
	}{
		{name: "scan, the stop is the fetch limit", sql: scan, arg: "o1", k: 5, rows: 12, plan: "limitHint=5"},
		{name: "scan, N an exact multiple of K", sql: scan, arg: "o1", k: 4, rows: 12, plan: "limitHint=4"},
		{name: "scan past the page under a residual", sql: `SELECT ts FROM thoughts WHERE owner = ? AND cid = 1`,
			arg: "o1", k: 3, rows: 7, dropped: 5, plan: "limitHint=card(50), residual"},
		{name: "scan past the page under a filtering join", arg: "o1", k: 3, rows: 7, dropped: 5, plan: "limitHint=card(50)",
			sql: `SELECT t.ts FROM thoughts t JOIN cats c WHERE t.owner = ? AND c.cid = t.cid AND c.visible = true ORDER BY t.ts DESC`},
		{name: "declared foreign key, parent deleted", sql: fkJoin, arg: "o1", k: 3, rows: 7, dropped: 5, plan: "limitHint=3",
			prep: func(s *Session) { do(s, `DELETE FROM cats WHERE cid = 0`) }},
		{name: "sort+stop sorted join, three streams with ties", sql: stream + ` ORDER BY thoughts.ts DESC`,
			arg: "me", k: 5, rows: 36, plan: "stop=5",
			prep: func(s *Session) {
				do(s, `INSERT INTO users VALUES ('o3')`)
				do(s, `INSERT INTO subs VALUES ('me', 'o3')`)
				for ts := 0; ts < 12; ts++ {
					do(s, `INSERT INTO thoughts VALUES ('o3', ?, 1)`, value.Int(int64(ts)))
				}
			}},
		{name: "cardinality sorted join, no ORDER BY", arg: "me", k: 3, rows: 14, dropped: 10, plan: "limitHint=50, residual",
			sql: stream + ` AND thoughts.cid = 1`},
		{name: "cardinality sorted join under a filtering join", arg: "me", k: 3, rows: 14, dropped: 10, plan: "limitHint=50)",
			sql: `SELECT thoughts.owner, thoughts.ts FROM subs s JOIN thoughts JOIN cats c
				WHERE thoughts.owner = s.target AND s.owner = ? AND c.cid = thoughts.cid AND c.visible = true`},
		{name: "sorted join, a stream's first entries all dangle", sql: byCategory, arg: "me", k: 3, rows: 24, dropped: 4, plan: "stop=3",
			prep: func(s *Session) {
				// Preparing the statement creates the index; its four first
				// entries of o1's stream then get no record behind them.
				if _, err := s.Prepare(byCategory + " PAGINATE 3"); err != nil {
					t.Fatal(err)
				}
				thoughts := s.eng.Catalog().Table("thoughts")
				for _, ix := range s.eng.Catalog().Indexes("thoughts") {
					for ts := int64(100); !ix.Primary && ts < 104; ts++ {
						ghost := value.Row{value.Str("o1"), value.Int(ts), value.Int(-1)}
						if err := s.client.Put(index.EntryKeys(ix, thoughts, ghost)[0], nil); err != nil {
							t.Fatal(err)
						}
					}
				}
			}},
		{name: "sort+stop sorted join, two streams with one join key", sql: twice + ` ORDER BY thoughts.ts DESC`,
			arg: "me", k: 5, rows: 36, plan: "stop=5", prep: followTwice},
		{name: "cardinality sorted join, two streams with one join key", sql: twice,
			arg: "me", k: 5, rows: 36, plan: "limitHint=50", prep: followTwice},
		{name: "the empty result, scan", sql: scan, arg: "nobody", k: 3, plan: "IndexScan"},
		{name: "the empty result, sorted join", sql: stream + ` ORDER BY thoughts.ts DESC`, arg: "nobody", k: 3, plan: "SortedIndexJoin"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStopFixture(t, stopFixtureCard)
			if tc.prep != nil {
				tc.prep(s)
			}
			full, err := s.Prepare(tc.sql + " LIMIT 100")
			if err != nil {
				t.Fatal(err)
			}
			paged, err := s.Prepare(fmt.Sprintf("%s PAGINATE %d", tc.sql, tc.k))
			if err != nil {
				t.Fatal(err)
			}
			if expl := paged.Plan().Explain(); !containsAll(expl, tc.plan, "-- cursor: a position in "+paged.Plan().Pager.Label()) {
				t.Fatalf("not the shape this case is about (%q):\n%s", tc.plan, expl)
			}
			for _, strat := range []exec.Strategy{exec.Lazy, exec.Simple, exec.Parallel} {
				s.SetStrategy(strat)
				want, err := full.Execute(s, value.Str(tc.arg))
				if err != nil {
					t.Fatal(err)
				}
				if len(want.Rows) != tc.rows {
					t.Fatalf("%v: the unpaginated query returns %d rows, the case says %d", strat, len(want.Rows), tc.rows)
				}
				cur, err := paged.Paginate(value.Str(tc.arg))
				if err != nil {
					t.Fatal(err)
				}
				var got []value.Row
				states := map[string]bool{}
				for calls := 1; ; calls++ {
					blob := cur.Serialize()
					if states[string(blob)] {
						t.Fatalf("%v: call %d starts from a cursor an earlier call started from; pages so far %v", strat, calls, got)
					}
					states[string(blob)] = true
					server := s.eng.Session(nil)
					server.SetStrategy(strat)
					if cur, err = s.eng.RestoreCursor(server, blob); err != nil {
						t.Fatal(err)
					}
					page, err := cur.Next(server)
					if err != nil {
						t.Fatalf("%v: call %d: %v", strat, calls, err)
					}
					if page == nil {
						break
					}
					if calls >= tc.rows+tc.dropped+2 {
						t.Fatalf("%v: the cursor has not ended after %d calls; pages so far %v", strat, calls, got)
					}
					if len(page.Rows) > tc.k {
						t.Fatalf("%v: a page of %d rows, PAGINATE %d", strat, len(page.Rows), tc.k)
					}
					got = append(got, page.Rows...)
				}
				if fmt.Sprint(got) != fmt.Sprint(want.Rows) {
					t.Errorf("%v: the pages add up to\n %v\nthe unpaginated query returns\n %v", strat, got, want.Rows)
				}
			}
		})
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}

// TestForgedCursorStaysInItsSection: the position in a serialized cursor
// has been in the user's hands. Overwritten with a key of another owner's
// section — here a genuine position of o2's cursor put into o1's — it used
// to become the scan's bound, and o1's next page was rows of o2. The
// pager takes a position only inside its own range.
func TestForgedCursorStaysInItsSection(t *testing.T) {
	s := newStopFixture(t, stopFixtureCard)
	for ts := 0; ts < 6; ts++ { // o0: a section before o1's, as o2's is after it
		if err := s.Exec(`INSERT INTO thoughts VALUES ('o0', ?, 1)`, value.Int(int64(ts))); err != nil {
			t.Fatal(err)
		}
	}
	for _, order := range []string{"ORDER BY ts", "ORDER BY ts DESC"} {
		q, err := s.Prepare(`SELECT owner, ts FROM thoughts WHERE owner = ? ` + order + ` PAGINATE 3`)
		if err != nil {
			t.Fatal(err)
		}
		for _, other := range []string{"o0", "o2"} {
			theirs, _ := q.Paginate(value.Str(other))
			if page, err := theirs.Next(s); err != nil || len(page.Rows) != 3 || theirs.resume == nil {
				t.Fatalf("%s: %s's first page: %v, %v", order, other, page, err)
			}
			forged, _ := q.Paginate(value.Str("o1"))
			forged.resume = theirs.resume
			cur, err := s.eng.RestoreCursor(s.eng.Session(nil), forged.Serialize())
			if err != nil {
				t.Fatal(err)
			}
			if page, err := cur.Next(s); err == nil {
				t.Errorf("%s: o1's cursor at a position of %s returns %v, want an error and no row", order, other, page.Rows)
			}
		}
	}
}

// TestRestoredCursorOwnsItsBytes: a restored cursor does not read the
// bytes it was restored from again. The caller's buffer is written over
// with another owner's cursor of the same length after the restore; the
// next page is still the one an untouched restore returns, where it used
// to be read at the other owner's position.
func TestRestoredCursorOwnsItsBytes(t *testing.T) {
	s := warmFixture(t)
	q, err := s.Prepare(`SELECT * FROM thoughts WHERE owner = ? ORDER BY timestamp PAGINATE 4`)
	if err != nil {
		t.Fatal(err)
	}
	blob := func(owner string) []byte {
		c, err := q.Paginate(value.Str(owner))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Next(s); err != nil {
			t.Fatal(err)
		}
		return c.Serialize()
	}
	mine, theirs := blob("u01"), blob("u02")
	if len(mine) != len(theirs) {
		t.Fatalf("cursors of %d and %d bytes: the overwrite needs one length", len(mine), len(theirs))
	}
	page := func(c *Cursor) string {
		res, err := c.Next(s)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(res.Rows)
	}
	untouched, err := s.eng.RestoreCursor(s, bytes.Clone(mine))
	if err != nil {
		t.Fatal(err)
	}
	want := page(untouched)
	restored, err := s.eng.RestoreCursor(s, mine)
	if err != nil {
		t.Fatal(err)
	}
	copy(mine, theirs)
	if got := page(restored); got != want {
		t.Errorf("after the caller's bytes changed the restored cursor returns\n %s\nan untouched restore\n %s", got, want)
	}
}

// FuzzRestoreCursor: whatever bytes come back from the user, restoring
// them does not panic, and a cursor that does restore pages through rows
// its own statement returns for its own parameters, and nothing else. The
// checked-in corpus (testdata/fuzz/FuzzRestoreCursor, replayed by plain
// go test) holds this fixture's cursors as serialized today — fresh,
// mid-scan, mid-sorted-join, the position forged to o2's, truncated,
// layout version 1; the seed added here is the shape it lacks, a scan
// fetching past the page under a residual.
func FuzzRestoreCursor(f *testing.F) {
	s := newStopFixture(f, stopFixtureCard)
	q, err := s.Prepare(`SELECT owner, ts FROM thoughts WHERE owner = ? AND cid = 1 PAGINATE 3`)
	if err != nil {
		f.Fatal(err)
	}
	cur, _ := q.Paginate(value.Str("o2"))
	if _, err := cur.Next(s); err != nil {
		f.Fatal(err)
	}
	f.Add(cur.Serialize())
	f.Fuzz(func(t *testing.T, data []byte) {
		server := s.eng.Session(nil)
		cur, err := s.eng.RestoreCursor(server, data)
		if err != nil {
			return
		}
		unpaged := *cur.prepared.plan.Stmt
		unpaged.Paginate, unpaged.Limit = 0, 1000
		full, err := server.Query(unpaged.String(), cur.params...)
		if err != nil {
			return
		}
		theirs := map[string]bool{}
		for _, row := range full.Rows {
			theirs[fmt.Sprint(row)] = true
		}
		for pages := 0; pages < 64; pages++ {
			page, err := cur.Next(server)
			if err != nil || page == nil {
				return
			}
			for _, row := range page.Rows {
				if !theirs[fmt.Sprint(row)] {
					t.Fatalf("page %d of %q %v holds %v, which the statement does not return", pages, cur.prepared.sql, cur.params, row)
				}
			}
		}
	})
}
