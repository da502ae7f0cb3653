package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"piql/internal/parser"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata from the current code")

// pinnedShapes are the four plan shapes whose compile allocations
// TestPrepareAllocations (internal/analyze) pins, in its order.
var pinnedShapes = []struct{ name, sql string }{
	{"pk lookup", `SELECT * FROM users WHERE username = [1: u]`},
	{"thoughtstream", thoughtstreamSQL},
	{"secondary scan + deref", `SELECT * FROM users WHERE hometown = [1: h] LIMIT 10`},
	{"fk join", `SELECT u.* FROM subscriptions s JOIN users u WHERE u.username = s.target AND s.owner = [1: me]`},
}

// bindRefusals are SELECTs the binder refuses, one or more per error it
// can return, and names it has to resolve the way it always has: an
// alias or table name matches another when the two lower-case alike
// (strings.ToLower), so a Kelvin sign matches k and a long s matches no
// s.
var bindRefusals = []string{
	`SELECT * FROM nope`,
	`SELECT * FROM users u JOIN thoughts u WHERE u.username = u.owner`,
	`SELECT * FROM users JOIN USERS WHERE users.username = USERS.username`,
	`SELECT * FROM users u JOIN users U WHERE u.username = U.username`,
	`SELECT * FROM users WHERE x.username = 'a'`,
	`SELECT x.* FROM users LIMIT 5`,
	`SELECT x.username FROM users LIMIT 5`,
	`SELECT * FROM users WHERE u.nope = 'a'`,
	`SELECT * FROM users u WHERE u.nope = 'a'`,
	`SELECT * FROM users WHERE nope = 'a'`,
	`SELECT nope FROM users WHERE username = 'a'`,
	`SELECT * FROM users ORDER BY nope LIMIT 5`,
	`SELECT * FROM subscriptions s JOIN thoughts t WHERE owner = 'a' AND s.owner = t.owner`,
	`SELECT * FROM users WHERE username = password`,
	`SELECT * FROM users u JOIN subscriptions s WHERE u.username < s.target AND s.owner = 'a'`,
	`SELECT * FROM thoughts WHERE timestamp CONTAINS 'x' LIMIT 5`,
	`SELECT * FROM users WHERE username = 1`,
	`SELECT * FROM thoughts WHERE owner = 'a' AND timestamp = 'noon'`,
	`SELECT * FROM users WHERE username IN ('a', 2)`,
	`SELECT * FROM users WHERE username = hometown.x`,
	`SELECT COUNT(*), hometown FROM users WHERE username = 'a'`,
	`SELECT COUNT(*), * FROM users WHERE username = 'a'`,
	`SELECT COUNT(nope) FROM users WHERE username = 'a'`,
	`SELECT COUNT(*) FROM users WHERE username = 'a' GROUP BY nope`,
	`SELECT * FROM users WHERE username = 'a' AND password = 'b' AND hometown = 3`,
	`SELECT * FROM users WHERE username = 3 AND nope = 'b'`,
	`SELECT * FROM users WHERE nope = 'b' AND username = 3`,
	`SELECT * FROM users ſ WHERE s.username = 'a'`,
	`SELECT * FROM users s WHERE ſ.username = 'a'`,
	`SELECT * FROM users K WHERE k.username = 'a'`,
	`SELECT k.* FROM users K WHERE K.username = 'a'`,
	`SELECT * FROM users É WHERE é.username = 'a'`,
	`SELECT U.username FROM users u WHERE U.username = 'a' ORDER BY U.hometown`,
	`SELECT * FROM Users WHERE USERS.username = 'a'`,
}

// writeRefusals are DML texts BindWrite refuses (against writeCatalog).
var writeRefusals = []string{
	`INSERT INTO nope VALUES (1)`,
	`INSERT INTO users VALUES ('ann', 'pw')`,
	`INSERT INTO users (username, nope) VALUES ('ann', 'x')`,
	`INSERT INTO users (username, username) VALUES ('ann', 'bob')`,
	`INSERT INTO thoughts VALUES ('ann', 'noon', 'hi')`,
	`INSERT INTO users VALUES ('ann', username, 'SF')`,
	`UPDATE thoughts SET timestamp = 'noon' WHERE owner = 'ann' AND timestamp = 1`,
	`UPDATE users SET password = 'a', password = 'b' WHERE username = 'ann'`,
	`UPDATE users SET nope = 1 WHERE username = 'ann'`,
	`UPDATE users SET password = 'x'`,
	`DELETE FROM thoughts WHERE owner = 'ann'`,
	`DELETE FROM users WHERE username = 'ann' AND username = 'bob'`,
	`DELETE FROM users WHERE username IN ('ann', 'bob')`,
	`DELETE FROM users WHERE username = 'ann' AND hometown = 'SF'`,
	`DELETE FROM thoughts WHERE owner = 'ann' AND timestamp > 3`,
	`DELETE FROM thoughts WHERE owner = 'ann' AND timestamp = '3'`,
	`DELETE FROM users WHERE username = password`,
	`DELETE FROM users WHERE other.username = 'ann'`,
	`DELETE FROM users WHERE users.nope = 'ann'`,
	`DELETE FROM t WHERE a = 1 AND c CONTAINS 'x'`,
	`DELETE FROM t WHERE a = 1 AND f CONTAINS 'x'`,
	`UPDATE users SET password = 'x' WHERE USERS.username = 'ann'`,
}

// planTexts are statements the binder accepts: some Phase I or II
// refuses beyond TestRejections', each worded with the predicates it
// names, and some it plans with IN lists, residuals and joins.
var planTexts = []string{
	`SELECT username, hometown FROM users WHERE username = 'u1' AND password != 'p7'`,
	`SELECT u.username, u.hometown FROM subscriptions s JOIN users u WHERE u.username = s.target AND s.owner = 'u1' AND u.password != 'p7'`,
	`SELECT timestamp, text FROM thoughts WHERE owner = 'u1' AND timestamp < 3000007 ORDER BY timestamp DESC LIMIT 4`,
	`SELECT * FROM subscriptions WHERE owner IN ('a', 'b') AND target = [1: t] AND approved = true`,
	`SELECT s.target FROM users u JOIN subscriptions s WHERE s.owner = u.username AND u.username = 'ann' AND s.target IN ('bob', 'cy')`,
	`SELECT t.owner, COUNT(*) FROM subscriptions s JOIN thoughts t WHERE t.owner = s.target AND s.owner = [1: me] GROUP BY t.owner ORDER BY t.owner LIMIT 3`,
	`SELECT * FROM thoughts WHERE owner = [1: u] AND timestamp > 3 AND timestamp <= [2: hi] ORDER BY timestamp PAGINATE 5`,
	`SELECT * FROM thoughts WHERE timestamp > [1: a] AND timestamp > [2: b] ORDER BY timestamp LIMIT 5`,
	`SELECT * FROM thoughts t WHERE t.owner != 'x' AND t.text CONTAINS 'y' AND t.timestamp < 3 LIMIT 5`,
	`SELECT * FROM users u JOIN thoughts t WHERE t.owner = u.username AND u.username = 'a'`,
	`SELECT * FROM users WHERE username LIKE 'a%' AND hometown = 'x'`,
	`SELECT * FROM subscriptions s WHERE s.owner IN ('a', 'b') AND s.approved = true`,
}

// TestRefusalsGolden pins the words of every refusal — the binder's
// errors, BindWrite's, every NotScaleIndependentError TestRejections
// provokes and a few more — and the EXPLAIN and logical EXPLAIN of the
// four pinned shapes and of the statements of bindRefusals the binder
// accepts. Display names are joined only when these texts are read, so
// this file is what says they read as before. A change is a reviewed
// diff of testdata/refusals.golden:
//
//	go test ./internal/core -run TestRefusalsGolden -update
func TestRefusalsGolden(t *testing.T) {
	cat := scadrCatalog(t)
	var sb strings.Builder
	explain := func(sql string) {
		stmt, err := parser.Parse(sql)
		if err != nil {
			fmt.Fprintf(&sb, "\tparse error: %v\n", err)
			return
		}
		plan, err := Compile(cat, stmt.(*parser.Select))
		if err != nil {
			fmt.Fprintf(&sb, "\terror: %v\n", err)
			return
		}
		fmt.Fprintf(&sb, "%s%s", plan.Explain(), plan.ExplainLogical())
	}
	for _, shape := range pinnedShapes {
		fmt.Fprintf(&sb, "== shape %s\n", shape.name)
		explain(shape.sql)
	}
	for _, sql := range bindRefusals {
		fmt.Fprintf(&sb, "== bind %s\n", sql)
		explain(sql)
	}
	for _, c := range rejectionCases {
		fmt.Fprintf(&sb, "== TestRejections %s\n", c.src)
		explain(c.src)
	}
	for _, sql := range planTexts {
		fmt.Fprintf(&sb, "== plan %s\n", sql)
		explain(sql)
	}
	wcat := writeCatalog(t)
	for _, sql := range writeRefusals {
		fmt.Fprintf(&sb, "== write %s\n", sql)
		stmt, err := parser.Parse(sql)
		if err != nil {
			fmt.Fprintf(&sb, "\tparse error: %v\n", err)
			continue
		}
		w, err := BindWrite(wcat, stmt)
		if err != nil {
			fmt.Fprintf(&sb, "\terror: %v\n", err)
			continue
		}
		fmt.Fprintf(&sb, "\tbound: row %s key %s\n", keyStr(w.Row), keyStr(w.Key))
	}
	checkGolden(t, "refusals.golden", sb.String())
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) == got {
		return
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Fatalf("%s differs at line %d (regenerate with -update and review the diff):\n  want: %s\n  got:  %s", path, i+1, w, g)
		}
	}
}

// TestLowerEqual: the binder matches a qualifier to a relation without
// lower-casing either name, and must match exactly the pairs
// strings.ToLower makes equal — invalid UTF-8 and U+FFFD included.
func TestLowerEqual(t *testing.T) {
	names := []string{"", "u", "U", "users", "USERS", "Users", "user", "s", "S", "ſ", "k", "K", "K",
		"é", "É", "ß", "ẞ", "İ", "i", "ı", "Σ", "σ", "ς", "\xff", "\xfe", "�", "a\xff", "a�", "A\xff"}
	for _, a := range names {
		for _, b := range names {
			if got, want := lowerEqual(a, b), strings.ToLower(a) == strings.ToLower(b); got != want {
				t.Errorf("lowerEqual(%q, %q) = %v, strings.ToLower says %v", a, b, got, want)
			}
		}
	}
}
