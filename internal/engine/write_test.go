package engine

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"unsafe"
	"weak"

	"piql/internal/exec"
	"piql/internal/index"
	"piql/internal/kvstore"
	"piql/internal/value"
)

func newEngine(t testing.TB, ddl ...string) *Session {
	t.Helper()
	s := New(kvstore.New(kvstore.Config{Nodes: 2, ReplicationFactor: 1, Seed: 1}, nil)).Session(nil)
	for _, q := range ddl {
		if err := s.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	return s
}

func queryRows(t *testing.T, s *Session, sql string, params ...value.Value) string {
	t.Helper()
	res, err := s.Query(sql, params...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return fmt.Sprint(res.Rows)
}

// TestWriteBinding holds Exec to the binder a query goes through. The
// rows of the first table each went through at the parent of the change
// that bound DML (engine's own AST interpreter never type-checked an
// UPDATE, took the last of two equalities on a key column for the key,
// and looked up a string where the key is an integer); the second table
// is what held before and still does.
func TestWriteBinding(t *testing.T) {
	s := newEngine(t,
		`CREATE TABLE t (id INT, name VARCHAR(5), n INT, d DOUBLE, PRIMARY KEY (id))`,
		`INSERT INTO t VALUES (1, 'a', 1, 1.5)`,
		`INSERT INTO t VALUES (2, 'b', 2, 2.5)`)
	const all = `SELECT * FROM t WHERE id IN (1, 2, 3, 4, 5)`
	before := queryRows(t, s, all)

	for _, tc := range []struct {
		name, sql string
		params    []value.Value
		want      string // in the error
	}{
		{"UPDATE stores a literal of the wrong type", `UPDATE t SET n = 'str' WHERE id = 1`, nil, "type mismatch"},
		{"UPDATE stores a parameter of the wrong type", `UPDATE t SET n = ? WHERE id = 1`, []value.Value{value.Str("str")}, "t.n is INT"},
		{"UPDATE stores a literal past VARCHAR(n)", `UPDATE t SET name = 'waytoolongname' WHERE id = 1`, nil, "exceeds VARCHAR(5)"},
		{"UPDATE stores a parameter past VARCHAR(n)", `UPDATE t SET name = ? WHERE id = ?`, []value.Value{value.Str("waytoolongname"), value.Int(1)}, "exceeds VARCHAR(5)"},
		{"INSERT names a column twice", `INSERT INTO t (id, id) VALUES (4, 5)`, nil, "named twice"},
		{"INSERT omits the primary key", `INSERT INTO t (name) VALUES ('zz')`, nil, "t.id is NULL"},
		{"INSERT of a NULL literal key", `INSERT INTO t VALUES (NULL, 'zz', 1, 1.0)`, nil, "t.id is NULL"},
		{"INSERT of a NULL parameter key", `INSERT INTO t VALUES (?, 'zz', 1, 1.0)`, []value.Value{value.Null()}, "t.id is NULL"},
		{"DELETE repeats a key column", `DELETE FROM t WHERE id = 1 AND id = 2`, nil, "a write names one row"},
		{"UPDATE repeats a key column", `UPDATE t SET n = 9 WHERE id = 2 AND id = 1`, nil, "a write names one row"},
		{"DELETE by a key literal of the wrong type", `DELETE FROM t WHERE id = '1'`, nil, "type mismatch"},
		{"fewer parameters than the statement takes", `UPDATE t SET n = ? WHERE id = ?`, []value.Value{value.Int(1)}, "statement needs 2 parameters, got 1"},
		{"no parameters at all", `INSERT INTO t VALUES (?, ?, ?, ?)`, nil, "statement needs 4 parameters, got 0"},
	} {
		s.Client().ResetOps()
		err := s.Exec(tc.sql, tc.params...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
		if strings.Contains(tc.name, "parameters") && s.Client().Ops() != 0 {
			t.Errorf("%s: %d store operations before the refusal, want it up front", tc.name, s.Client().Ops())
		}
		if after := queryRows(t, s, all); after != before {
			t.Fatalf("%s: the refused statement wrote: rows %s, were %s", tc.name, after, before)
		}
	}

	for _, tc := range []struct {
		name, sql string
		params    []value.Value
		want      string // in the error; "" for success
		rows      string // of the whole table afterwards
	}{
		{"SET of a key column to its own value", `UPDATE t SET id = 1, n = 7 WHERE id = 1`, nil, "",
			`[(1, "a", 7, 1.5) (2, "b", 2, 2.5)]`},
		{"SET of a key column to another", `UPDATE t SET id = 3 WHERE id = 1`, nil, "may not modify primary key", ""},
		{"an integer literal widens into DOUBLE", `UPDATE t SET d = 3 WHERE id = 1`, nil, "",
			`[(1, "a", 7, 3) (2, "b", 2, 2.5)]`},
		{"an integer parameter widens into DOUBLE", `UPDATE t SET d = ? WHERE id = ?`, []value.Value{value.Int(4), value.Int(2)}, "",
			`[(1, "a", 7, 3) (2, "b", 2, 4)]`},
		{"INSERT of named columns leaves the rest NULL", `INSERT INTO t (d, id) VALUES (2, 3)`, nil, "",
			`[(1, "a", 7, 3) (2, "b", 2, 4) (3, NULL, NULL, 2)]`},
		{"DELETE of an absent row", `DELETE FROM t WHERE id = 99`, nil, "", ""},
		{"DELETE", `DELETE FROM t WHERE t.id = [1: id]`, []value.Value{value.Int(3)}, "",
			`[(1, "a", 7, 3) (2, "b", 2, 4)]`},
		{"UPDATE of an absent row", `UPDATE t SET n = 1 WHERE id = 99`, nil, "no row in t", ""},
		{"an IN list for the key", `DELETE FROM t WHERE id IN (1, 2)`, nil, "a write names one row", ""},
		{"an inequality on the key", `DELETE FROM t WHERE id >= 1`, nil, "a write names one row", ""},
		{"a predicate beside the key", `DELETE FROM t WHERE id = 1 AND n = 7`, nil, "a write names one row", ""},
		{"a SELECT", `SELECT * FROM t WHERE id = 1`, nil, "use Prepare/Query", ""},
	} {
		if tc.rows != "" {
			before = tc.rows
		}
		err := s.Exec(tc.sql, tc.params...)
		if (tc.want == "") != (err == nil) || err != nil && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
		if after := queryRows(t, s, all); after != before {
			t.Errorf("%s: rows %s, want %s", tc.name, after, before)
		}
	}

	// A double stored through either widening reads back as a DOUBLE.
	if got := queryRows(t, s, `SELECT id FROM t WHERE id = 2 AND d = 4.0`); got != "[(2)]" {
		t.Errorf("the widened parameter is not the DOUBLE 4.0: %s", got)
	}
}

// TestUnusedEqualityStaysResidual: rows, under the three strategies, of
// the statements whose second equality on a keyed column, join predicate
// outside the key or IN list beside a join key the compiler dropped —
// `id = 1 AND id = 2` returned row 2.
func TestUnusedEqualityStaysResidual(t *testing.T) {
	s := newEngine(t,
		`CREATE TABLE t (id INT, n INT, PRIMARY KEY (id))`,
		`CREATE TABLE u (name VARCHAR(10), town VARCHAR(10), PRIMARY KEY (name))`,
		`CREATE TABLE th (owner VARCHAR(10), ts INT, PRIMARY KEY (owner, ts), CARDINALITY LIMIT 10 (owner))`,
		`CREATE TABLE a (id INT, bid INT, z INT, PRIMARY KEY (id))`,
		`CREATE TABLE b (id INT, z INT, PRIMARY KEY (id))`,
		`INSERT INTO t VALUES (1, 1)`, `INSERT INTO t VALUES (2, 2)`,
		`INSERT INTO u VALUES ('ann', 'SF')`, `INSERT INTO u VALUES ('bob', 'LA')`,
		`INSERT INTO th VALUES ('ann', 1)`, `INSERT INTO th VALUES ('ann', 2)`, `INSERT INTO th VALUES ('ann', 3)`, `INSERT INTO th VALUES ('bob', 1)`,
		`INSERT INTO a VALUES (1, 10, 5)`, `INSERT INTO a VALUES (2, 10, 6)`,
		`INSERT INTO b VALUES (10, 6)`)
	for _, tc := range []struct{ sql, want string }{
		{`SELECT id FROM t WHERE id = 1 AND id = 2`, `[]`},
		{`SELECT id FROM t WHERE id = 2 AND id = 2`, `[(2)]`},
		{`SELECT id FROM t WHERE id IN (1, 2) AND id = 2`, `[(2)]`},
		{`SELECT th.ts, u.town FROM th JOIN u WHERE th.owner = u.name AND th.owner = 'ann' AND th.ts = 1 AND u.name = 'bob'`, `[]`},
		{`SELECT th.ts, u.town FROM th JOIN u WHERE th.owner = u.name AND th.owner = 'ann' AND th.ts = 1 AND u.name = 'ann'`, `[(1, "SF")]`},
		{`SELECT a.id, b.id FROM a JOIN b WHERE a.bid = b.id AND a.z = b.z AND a.id = 1`, `[]`},
		{`SELECT a.id, b.id FROM a JOIN b WHERE a.bid = b.id AND a.z = b.z AND a.id = 2`, `[(2, 10)]`},
		{`SELECT u.name, th.ts FROM u JOIN th WHERE th.owner = u.name AND u.name = 'bob' AND th.owner = 'ann'`, `[]`},
		{`SELECT u.name, th.ts FROM u JOIN th WHERE th.owner = u.name AND u.name = 'bob' AND th.owner = 'bob'`, `[("bob", 1)]`},
		{`SELECT u.name, th.ts FROM u JOIN th WHERE th.owner = u.name AND u.name = 'ann' AND th.owner = 'ann' ORDER BY th.ts LIMIT 5`, `[("ann", 1) ("ann", 2) ("ann", 3)]`},
		{`SELECT u.name, th.ts FROM u JOIN th WHERE th.owner = u.name AND u.name = 'ann' AND th.ts IN (2, 3)`, `[("ann", 2) ("ann", 3)]`},
	} {
		for _, st := range []exec.Strategy{exec.Lazy, exec.Simple, exec.Parallel} {
			s.SetStrategy(st)
			if got := queryRows(t, s, tc.sql); got != tc.want {
				t.Errorf("%s (%s): rows %s, want %s", tc.sql, st, got, tc.want)
			}
		}
	}
}

// TestExecAllocations pins what Exec of a text it has seen costs: the
// cache lookup and the write, no parse and no bind. The parse of this
// INSERT and DELETE is 32 allocations more, so one that comes back
// shows here and not first in the benchmark. The write assembles its
// key and row in the session's scratch, and the delete decodes the row
// it removes only to rebuild entries this table has none of, so the 4
// left are the record key each statement builds and the envelopes of
// the insert's record and the delete's tombstone (6 when the delete
// decoded the row anyway, 9 when each statement made its own key and
// row, and the insert encoded its record on the heap).
func TestExecAllocations(t *testing.T) {
	if info, _ := debug.ReadBuildInfo(); info != nil && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("allocation counts differ under -race")
	}
	s := New(kvstore.New(kvstore.Config{Nodes: 1, ReplicationFactor: 1, Seed: 1}, nil)).Session(nil)
	if err := s.Exec(`CREATE TABLE items (id INT, name VARCHAR(20), qty INT, PRIMARY KEY (id))`); err != nil {
		t.Fatal(err)
	}
	name, qty := value.Str("widget"), value.Int(3)
	id := int64(0)
	pair := func() {
		id++
		if err := s.Exec(`INSERT INTO items VALUES (?, ?, ?)`, value.Int(id), name, qty); err != nil {
			t.Fatal(err)
		}
		if err := s.Exec(`DELETE FROM items WHERE id = ?`, value.Int(id)); err != nil {
			t.Fatal(err)
		}
	}
	pair() // binds both texts
	if got, want := testing.AllocsPerRun(200, pair), 4.0; got > want {
		t.Errorf("cached INSERT + DELETE: %v allocations, want at most %v", got, want)
	}
}

// TestCachedWriteSeesNewIndex: a bound write holds its table and no
// index, so a text cached before a CREATE INDEX maintains the new index
// from its next execution on.
func TestCachedWriteSeesNewIndex(t *testing.T) {
	s := newEngine(t, `CREATE TABLE people (name VARCHAR(10), town VARCHAR(10), PRIMARY KEY (name))`)
	const insert = `INSERT INTO people VALUES (?, ?)`
	if err := s.Exec(insert, value.Str("ann"), value.Str("SF")); err != nil {
		t.Fatal(err)
	}
	if err := s.Exec(`CREATE INDEX by_town ON people (town, name)`); err != nil {
		t.Fatal(err)
	}
	if err := s.Exec(insert, value.Str("bob"), value.Str("SF")); err != nil {
		t.Fatal(err)
	}
	p, err := s.Prepare(`SELECT name FROM people WHERE town = ? LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if ixs := p.Plan().RequiredIndexes; len(ixs) != 1 || ixs[0].Name != "by_town" {
		t.Fatalf("the query does not read the new index:\n%s", p.Plan().Explain())
	}
	res, err := p.Execute(s, value.Str("SF"))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows); got != `[("ann") ("bob")]` {
		t.Errorf("through the index: %s, want ann (the backfill) and bob (the cached INSERT)", got)
	}
	// The cached DELETE of a row maintains the index as well.
	const del = `DELETE FROM people WHERE name = ?`
	for _, who := range []string{"ann", "bob"} {
		if err := s.Exec(del, value.Str(who)); err != nil {
			t.Fatal(err)
		}
	}
	if res, err = p.Execute(s, value.Str("SF")); err != nil || len(res.Rows) != 0 {
		t.Errorf("after both deletes the index still yields %v (%v)", res, err)
	}
}

// TestUpdatePastCardinalityLimitIsRefused: an UPDATE that moves a row
// into a group already at its CARDINALITY LIMIT is refused as an insert
// there would be, and the row stays where it was. Admitted, the move
// would put three rows under owner 'a', and a read bounded by the limit
// would silently return two of them. The refusal holds whether the
// count reads the limit index the table was created with or the index
// the first query builds, which retires it; a move within the limit
// goes through.
func TestUpdatePastCardinalityLimitIsRefused(t *testing.T) {
	s := newEngine(t, `CREATE TABLE sub (id INT, owner VARCHAR(10), target VARCHAR(10), PRIMARY KEY (id), CARDINALITY LIMIT 2 (owner))`)
	for i, owner := range []string{"a", "a", "b"} {
		if err := s.Exec(`INSERT INTO sub VALUES (?, ?, 'x')`, value.Int(int64(i+1)), value.Str(owner)); err != nil {
			t.Fatal(err)
		}
	}
	for _, counted := range []string{"over the limit index", "over the query's index"} {
		err := s.Exec(`UPDATE sub SET owner = 'a' WHERE id = 3`)
		var card *index.ErrCardinalityExceeded
		if !errors.As(err, &card) {
			t.Fatalf("counted %s: moving row 3 to owner a: err = %v, want *index.ErrCardinalityExceeded", counted, err)
		}
		for owner, want := range map[string]string{"a": `[(1, "a") (2, "a")]`, "b": `[(3, "b")]`} {
			if got := queryRows(t, s, `SELECT id, owner FROM sub WHERE owner = ?`, value.Str(owner)); got != want {
				t.Fatalf("counted %s: owner %s holds %s after the refused move, want %s", counted, owner, got, want)
			}
		}
	}
	if err := s.Exec(`UPDATE sub SET owner = 'c' WHERE id = 3`); err != nil {
		t.Fatalf("a move within the limit: %v", err)
	}
	for owner, want := range map[string]string{"b": `[]`, "c": `[(3, "c")]`} {
		if got := queryRows(t, s, `SELECT id, owner FROM sub WHERE owner = ?`, value.Str(owner)); got != want {
			t.Fatalf("owner %s holds %s after the move, want %s", owner, got, want)
		}
	}
}

// TestCardinalityWithTokenIndexIsEnforced: an index whose fields start
// with the constraint column but that also tokenizes a column stores the
// token first, so it cannot count the constraint's group. Chosen for the
// count, its prefix matched no entry and every insert counted 0: all
// four rows for ann went in, and a read bounded by the limit returned
// two of them without a word. The count must pass such an index by.
func TestCardinalityWithTokenIndexIsEnforced(t *testing.T) {
	s := newEngine(t,
		`CREATE TABLE th (id INT, owner VARCHAR(10), text VARCHAR(20), PRIMARY KEY (id), CARDINALITY LIMIT 2 (owner))`,
		`CREATE INDEX byowner ON th (owner, TOKEN(text))`)
	for i, text := range []string{"apple", "bread", "cider", "dates"} {
		err := s.Exec(`INSERT INTO th VALUES (?, 'ann', ?)`, value.Int(int64(i+1)), value.Str(text))
		var card *index.ErrCardinalityExceeded
		switch {
		case i < 2 && err != nil:
			t.Fatalf("insert %d of 2 allowed: %v", i+1, err)
		case i >= 2 && !errors.As(err, &card):
			t.Fatalf("insert %d past CARDINALITY LIMIT 2: err = %v, want *index.ErrCardinalityExceeded", i+1, err)
		}
	}
	if got, want := queryRows(t, s, `SELECT id FROM th WHERE owner = [1: o]`, value.Str("ann")), `[(1) (2)]`; got != want {
		t.Fatalf("owner ann holds %s, want %s", got, want)
	}
}

// TestLoadWithALimitIsLinear: loading a table shaped like TPC-W's orders
// as it loads — a CARDINALITY LIMIT that prefixes no primary key, no
// index but the limit index the table was created with, every row its
// own group — costs the same per insert at 4× the rows as at 1×, in
// store operations and in bytes allocated: each insert counts its group
// with one bounded range on the limit index. A count that read and
// decoded every record of the table would allocate in proportion to the
// rows before it, and the load would be quadratic.
func TestLoadWithALimitIsLinear(t *testing.T) {
	perInsert := func(rows int) (ops, bytes float64) {
		s := newEngine(t, `CREATE TABLE orders (o_id INT, o_c_uname VARCHAR(20), o_date_time INT, o_total INT,
			PRIMARY KEY (o_id), CARDINALITY LIMIT 500 (o_c_uname))`)
		unames := make([]value.Value, rows)
		for i := range unames {
			unames[i] = value.Str(fmt.Sprintf("c%07d", i))
		}
		const insert = `INSERT INTO orders VALUES (?, ?, ?, ?)`
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.Client().ResetOps()
		for i, uname := range unames {
			if err := s.Exec(insert, value.Int(int64(i)), uname, value.Int(30000000+int64(i)), value.Int(1000)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(s.Client().Ops()) / float64(rows), float64(after.TotalAlloc-before.TotalAlloc) / float64(rows)
	}
	const small = 500
	ops1, bytes1 := perInsert(small)
	ops4, bytes4 := perInsert(4 * small)
	if ops4 > 1.25*ops1 {
		t.Errorf("store operations per insert: %.2f at %d rows, %.2f at %d, want within 1.25×", ops1, small, ops4, 4*small)
	}
	if bytes4 > 1.25*bytes1 {
		t.Errorf("bytes allocated per insert: %.0f at %d rows, %.0f at %d, want within 1.25×", bytes1, small, bytes4, 4*small)
	}
}

// TestWriteScratchKeepsNoStringAlive: a write assembles its key and row
// in the session's scratch and clears both when it returns, so a string
// it was handed is collectable once the caller drops it; the store keeps
// encoded copies, not the caller's strings.
func TestWriteScratchKeepsNoStringAlive(t *testing.T) {
	s := newEngine(t, `CREATE TABLE items (name VARCHAR(40), qty INT, PRIMARY KEY (name))`)
	write := func(sql string) weak.Pointer[byte] {
		name := strings.Repeat("w", 32) // a string of this write alone
		if err := s.Exec(sql, value.Str(name)); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return weak.Make(unsafe.StringData(name))
	}
	for _, sql := range []string{`INSERT INTO items VALUES (?, 1)`, `DELETE FROM items WHERE name = ?`} {
		p := write(sql)
		for i := 0; i < 3; i++ {
			runtime.GC()
		}
		if p.Value() != nil {
			t.Errorf("%s: the session still holds the string it was handed", sql)
		}
	}
}
