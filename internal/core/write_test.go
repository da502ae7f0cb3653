package core

import (
	"strings"
	"testing"

	"piql/internal/parser"
	"piql/internal/schema"
)

// TestKeyLeavesTheRestAsResidual: an operator's key stands for one
// predicate per column; whatever else the WHERE clause says about the
// relation — a second equality on a keyed column, a join predicate the
// key has no place for — has to be in the plan as a residual. Dropped,
// `id = 1 AND id = 2` returned row 2.
func TestKeyLeavesTheRestAsResidual(t *testing.T) {
	cat := scadrCatalog(t)
	for _, tc := range []struct {
		name, sql string
		want      []string // substrings of the EXPLAIN output
	}{
		{"second equality on the key column",
			`SELECT * FROM users WHERE username = 'ann' AND username = 'bob'`,
			[]string{`PKLookup(users, keys=1, residual: users.username = "bob")`}},
		{"plain equality keys, the IN list filters",
			`SELECT * FROM users WHERE username IN ('ann', 'bob') AND username = 'bob'`,
			[]string{`PKLookup(users, keys=1, residual: users.username IN ("ann", "bob"))`}},
		{"constant equality on a column the join keys",
			`SELECT s.target, u.hometown FROM subscriptions s JOIN users u
			 WHERE s.target = u.username AND s.owner = 'ann' AND s.target = 'bob' AND u.username = 'cy'`,
			[]string{`IndexFKJoin(users, key=(s.target), residual: u.username = "cy")`}},
		{"join predicate outside the key",
			`SELECT s.target FROM subscriptions s JOIN users u
			 WHERE s.target = u.username AND s.owner = u.hometown AND s.owner = 'ann' AND s.target = 'bob'`,
			[]string{`IndexFKJoin(users, key=(s.target), residual: u.hometown = s.owner)`}},
		{"constant equality on the column a bounded join keys",
			`SELECT s.target FROM users u JOIN subscriptions s
			 WHERE s.owner = u.username AND u.username = 'bob' AND s.owner = 'ann'`,
			[]string{`SortedIndexJoin(subscriptions(owner, target), key=(u.username)`, `residual: s.owner = "ann")`}},
	} {
		explain := compile(t, cat, tc.sql).Explain()
		for _, want := range tc.want {
			if !strings.Contains(explain, want) {
				t.Errorf("%s: plan lacks %q:\n%s", tc.name, want, explain)
			}
		}
	}

	// The sort+stop join has no residual to give: a second predicate on a
	// join column sends the statement to the bounded join, and the index
	// prefix names each column once (it read owner, owner, timestamp).
	plan := compile(t, stopCatalog(t, ", CARDINALITY LIMIT 50 (owner)"), `
		SELECT t.* FROM users u JOIN thoughts t
		WHERE t.owner = u.username AND u.username = 'bob' AND t.owner = 'ann'
		ORDER BY t.ts LIMIT 5`)
	join, ok := findOp[*SortedIndexJoin](plan)
	if !ok || join.Stop != 0 || len(join.JoinKey) != 1 || len(join.Residual) != 1 {
		t.Errorf("want a bounded join keyed by the join column alone, the constant as its residual:\n%s", plan.Explain())
	}

	// An IN list is no part of a join key, so on a joined relation it
	// covers no constraint: it was counted towards the primary key, dropped
	// from the key and the fetch capped at its length. The declared limit
	// on owner bounds the join, the list filters.
	plan = compile(t, cat, `SELECT s.target FROM users u JOIN subscriptions s
		WHERE s.owner = u.username AND u.username = 'ann' AND s.target IN ('bob', 'cy')`)
	join, ok = findOp[*SortedIndexJoin](plan)
	if !ok || join.PerKeyLimit != 100 || len(join.JoinKey) != 1 || len(join.Residual) != 1 {
		t.Errorf("want the join bounded by CARDINALITY LIMIT 100 (owner), the IN list as its residual:\n%s", plan.Explain())
	}
}

// writeCatalog is the small fixed catalog TestBindWrite and FuzzBindWrite
// bind against: the tables the parser corpus' DML names.
func writeCatalog(t testing.TB) *schema.Catalog {
	t.Helper()
	cat := schema.NewCatalog()
	for _, ddl := range []string{
		`CREATE TABLE users (username VARCHAR(20), password VARCHAR(20), hometown VARCHAR(30), PRIMARY KEY (username))`,
		`CREATE TABLE thoughts (owner VARCHAR(20), timestamp INT, text VARCHAR(140), PRIMARY KEY (owner, timestamp))`,
		`CREATE TABLE orders (o_id INT, o_c_uname VARCHAR(20), o_date INT, o_total DOUBLE, o_status VARCHAR(16), PRIMARY KEY (o_id))`,
		`CREATE TABLE cart_line (scl_sc_id INT, scl_i_id INT, scl_qty INT, PRIMARY KEY (scl_sc_id, scl_i_id))`,
		`CREATE TABLE t (a INT, b DOUBLE, c VARCHAR(8), d BOOLEAN, e BOOLEAN, f INT, PRIMARY KEY (a))`,
	} {
		stmt, err := parser.Parse(ddl)
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddTable(stmt.(*parser.CreateTable).Table); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func keyStr(ks KeySpec) string {
	parts := make([]string, len(ks))
	for i, e := range ks {
		parts[i] = e.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func bindWrite(t *testing.T, cat Catalog, sql string) (*Write, error) {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return BindWrite(cat, stmt)
}

func TestBindWrite(t *testing.T) {
	cat := writeCatalog(t)

	w, err := bindWrite(t, cat, `INSERT INTO thoughts (timestamp, owner) VALUES (?, 'ann')`)
	if err != nil {
		t.Fatal(err)
	}
	if w.Table.Name != "thoughts" || w.NumParams != 1 || w.Key != nil {
		t.Errorf("insert bound as %+v", w)
	}
	if got := keyStr(w.Row); got != `("ann", [1], NULL)` {
		t.Errorf("insert row %s, want the table's columns in order, NULL where none is named", got)
	}

	w, err = bindWrite(t, cat, `UPDATE orders SET o_total = 5, o_status = [2: st] WHERE orders.o_id = [1: id]`)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumParams != 2 || keyStr(w.Key) != `([1: id])` {
		t.Errorf("update bound as %+v", w)
	}
	if got := keyStr(w.Row); got != `(o_id, o_c_uname, o_date, 5, [2: st])` {
		t.Errorf("update row %s, want the old row's columns where none is set, and the integer widened by the binder", got)
	}

	// The key comes back in primary-key order whatever the WHERE's order.
	w, err = bindWrite(t, cat, `DELETE FROM cart_line WHERE scl_i_id = ? AND scl_sc_id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if w.Row != nil || w.NumParams != 2 || keyStr(w.Key) != `([2], [1])` || w.Key[0].param != 2 {
		t.Errorf("delete bound as %+v", w)
	}

	for _, tc := range []struct{ sql, want string }{
		{`INSERT INTO nope VALUES (1)`, `unknown table "nope"`},
		{`INSERT INTO users VALUES ('ann', 'pw')`, "3 columns but 2 values"},
		{`INSERT INTO users (username, nope) VALUES ('ann', 'x')`, `unknown column "nope"`},
		{`INSERT INTO users (username, username) VALUES ('ann', 'bob')`, "named twice"},
		{`INSERT INTO thoughts VALUES ('ann', 'noon', 'hi')`, "type mismatch"},
		{`INSERT INTO users VALUES ('ann', username, 'SF')`, "column reference"},
		{`UPDATE thoughts SET timestamp = 'noon' WHERE owner = 'ann' AND timestamp = 1`, "type mismatch"},
		{`UPDATE users SET password = 'a', password = 'b' WHERE username = 'ann'`, "named twice"},
		{`UPDATE users SET nope = 1 WHERE username = 'ann'`, `unknown column "nope"`},
		{`UPDATE users SET password = 'x'`, "a write names one row"},
		{`DELETE FROM thoughts WHERE owner = 'ann'`, "a write names one row"},
		{`DELETE FROM users WHERE username = 'ann' AND username = 'bob'`, "a write names one row"},
		{`DELETE FROM users WHERE username IN ('ann', 'bob')`, "a write names one row"},
		{`DELETE FROM users WHERE username = 'ann' AND hometown = 'SF'`, "a write names one row"},
		{`DELETE FROM thoughts WHERE owner = 'ann' AND timestamp > 3`, "a write names one row"},
		{`DELETE FROM thoughts WHERE owner = 'ann' AND timestamp = '3'`, "type mismatch"},
		{`DELETE FROM users WHERE username = password`, "compares two columns"},
		{`DELETE FROM users WHERE other.username = 'ann'`, `unknown table or alias "other"`},
	} {
		if _, err := bindWrite(t, cat, tc.sql); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.sql, err, tc.want)
		}
	}

	sel, _ := parser.Parse(`SELECT * FROM users WHERE username = 'ann'`)
	if _, err := BindWrite(cat, sel); err == nil {
		t.Error("BindWrite bound a SELECT")
	}
}

// FuzzBindWrite: whatever the parser accepts as DML binds or is refused
// against a fixed catalog, without a panic, and an accepted statement is
// complete — an INSERT binds one expression per column of its table, an
// UPDATE or DELETE one per primary-key column. The seeds are
// testdata/fuzz/FuzzBindWrite — the DML of the parser's own corpus and
// the shapes a write refuses — replayed by plain go test.
func FuzzBindWrite(f *testing.F) {
	cat := writeCatalog(f)
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := parser.Parse(sql)
		if err != nil {
			return
		}
		switch stmt.(type) {
		case *parser.Insert, *parser.Update, *parser.Delete:
		default:
			return
		}
		w, err := BindWrite(cat, stmt)
		if err != nil {
			return
		}
		_, insert := stmt.(*parser.Insert)
		_, del := stmt.(*parser.Delete)
		if insert != (w.Key == nil) || del != (w.Row == nil) ||
			!del && len(w.Row) != len(w.Table.Columns) || !insert && len(w.Key) != len(w.Table.PrimaryKey) {
			t.Fatalf("%s: bound as %+v", sql, w)
		}
		for _, e := range append(append(KeySpec{}, w.Row...), w.Key...) {
			if e.kind == keyParam && (e.param < 1 || e.param > w.NumParams) {
				t.Fatalf("%s: parameter %d outside NumParams %d", sql, e.param, w.NumParams)
			}
		}
	})
}
