package engine

import (
	"fmt"
	"testing"

	"piql/internal/core"
	"piql/internal/kvstore"
	"piql/internal/value"
)

// newSkipFixture holds a table whose records each test below reads
// through a column the statement names in one clause only. Me follows
// four people, cy unapproved; cy's posts are the newest, and the towns
// sort the people in another order than their names.
func newSkipFixture(t *testing.T) *Session {
	t.Helper()
	s := New(kvstore.New(kvstore.Config{Nodes: 1, ReplicationFactor: 1, Seed: 6}, nil)).Session(nil)
	for _, stmt := range []string{
		`CREATE TABLE people (name VARCHAR(20), town VARCHAR(20), PRIMARY KEY (name))`,
		`CREATE TABLE follows (owner VARCHAR(20), target VARCHAR(20), approved BOOLEAN, PRIMARY KEY (owner, target),
			FOREIGN KEY (target) REFERENCES people, CARDINALITY LIMIT 10 (owner))`,
		`CREATE TABLE posts (id INT, author VARCHAR(20), ts INT, body VARCHAR(40), tag VARCHAR(20), PRIMARY KEY (id),
			CARDINALITY LIMIT 50 (author))`,
		`INSERT INTO people VALUES ('ann', 'zurich')`,
		`INSERT INTO people VALUES ('bob', 'athens')`,
		`INSERT INTO people VALUES ('cy', 'berlin')`,
		`INSERT INTO people VALUES ('dee', 'oslo')`,
		`INSERT INTO follows VALUES ('me', 'ann', true)`,
		`INSERT INTO follows VALUES ('me', 'bob', true)`,
		`INSERT INTO follows VALUES ('me', 'cy', false)`,
		`INSERT INTO follows VALUES ('me', 'dee', true)`,
	} {
		if err := s.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	for i, author := range []string{"ann", "bob", "cy"} {
		for ts := 1; ts <= 6; ts++ {
			id := int64(100*(i+1) + ts)
			if err := s.Exec(`INSERT INTO posts VALUES (?, ?, ?, ?, 'x')`, value.Int(id), value.Str(author),
				value.Int(int64(10*i+ts)), value.Str(fmt.Sprintf("%s says %d", author, ts))); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

// TestHiddenReadersAreDecoded: a column a statement names in one clause
// only is still decoded for the operator above that reads it — a
// residual, a sort, a grouping or an aggregate. Left out, each reads as
// NULL: the residual drops every row, the sort keeps the fetch order,
// and the groups and the maximum collapse.
func TestHiddenReadersAreDecoded(t *testing.T) {
	s := newSkipFixture(t)
	for _, tc := range []struct{ name, sql, want string }{
		{"a residual (the thoughtstream's approved)", `SELECT p.author, p.ts FROM follows f JOIN posts p
			WHERE p.author = f.target AND f.owner = 'me' AND f.approved = true ORDER BY p.ts DESC LIMIT 4`,
			`[("bob", 16) ("bob", 15) ("bob", 14) ("bob", 13)]`},
		{"ORDER BY", `SELECT p.name FROM follows f JOIN people p WHERE p.name = f.target AND f.owner = 'me'
			ORDER BY p.town LIMIT 10`,
			`[("bob") ("cy") ("dee") ("ann")]`},
		{"GROUP BY", `SELECT COUNT(*) FROM follows WHERE owner = 'me' GROUP BY approved`,
			`[(3) (1)]`},
		{"an aggregate", `SELECT MAX(ts) FROM posts WHERE author = 'bob'`,
			`[(16)]`},
	} {
		res, err := s.Query(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := fmt.Sprint(res.Rows); got != tc.want {
			t.Errorf("%s: %s returns %s, want %s", tc.name, tc.sql, got, tc.want)
		}
	}
}

// TestPagerKeepsItsPositionColumns: a page cut short by the stop ends at
// a position rebuilt from its last row's index entry, and the entry of a
// secondary index carries the primary key, here a column the statement
// never names. The pager decodes it anyway, so page 2 starts where page 1
// ended: decoded as NULL it would rebuild a position before every entry,
// and page 2 would repeat page 1.
func TestPagerKeepsItsPositionColumns(t *testing.T) {
	s := newSkipFixture(t)
	const sql = `SELECT body FROM posts WHERE author = ? AND ts > 1`
	full, err := s.Query(sql+` LIMIT 50`, value.Str("cy"))
	if err != nil {
		t.Fatal(err)
	}
	paged, err := s.Prepare(sql + ` PAGINATE 2`)
	if err != nil {
		t.Fatal(err)
	}
	scan, ok := paged.Plan().Pager.(*core.IndexScan)
	if !ok || scan.Index.Primary || scan.FetchLimit() != 50 {
		t.Fatalf("not a secondary scan fetching past the page:\n%s", paged.Plan().Explain())
	}
	if tag := uint64(1) << scan.Table.ColumnIndex("tag"); scan.Skip != tag {
		t.Errorf("the pager skips %b, want the one column no clause names and no position needs, tag: %b", scan.Skip, tag)
	}
	cur, err := paged.Paginate(value.Str("cy"))
	if err != nil {
		t.Fatal(err)
	}
	for page := 0; page < 2; page++ {
		cur, err = s.eng.RestoreCursor(s.eng.Session(nil), cur.Serialize())
		if err != nil {
			t.Fatal(err)
		}
		res, err := cur.Next(s)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(res.Rows), fmt.Sprint(full.Rows[2*page:2*page+2]); got != want {
			t.Fatalf("page %d is %s, the unpaginated result there %s", page+1, got, want)
		}
	}
}
