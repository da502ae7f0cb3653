package parser

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// coldShapes are the statement shapes of the benchmark's prepare_cold
// workload (bench/prepare.go), one text each, spelled and indented as
// the workload spells them.
var coldShapes = []string{
	`SELECT username, hometown FROM users
			WHERE username = 'u0000042' AND password != 'p9999'`,
	`SELECT u.username, u.hometown FROM subscriptions s JOIN users u
			WHERE u.username = s.target AND s.owner = 'u0000042' AND u.password != 'p9999'`,
	`SELECT timestamp, text FROM thoughts
			WHERE owner = 'u0000042' AND timestamp < 3009999 ORDER BY timestamp DESC LIMIT 10`,
	`SELECT thoughts.owner, thoughts.timestamp, thoughts.text
			FROM subscriptions s JOIN thoughts
			WHERE thoughts.owner = s.target AND s.owner = 'u0000042' AND s.approved = true
			ORDER BY thoughts.timestamp DESC LIMIT 13`,
	`SELECT c_uname, c_fname, c_lname, c_discount FROM customer
			WHERE c_uname = 'c0000042' AND c_passwd != 'p9999'`,
	`SELECT i_id, i_title, i_desc, i_cost, i_stock, a_fname, a_lname
			FROM item JOIN author WHERE i_a_id = a_id AND i_id = 142 AND i_desc != 'd9999'`,
	`SELECT i_id, i_title, i_pub_date, a_fname, a_lname
			FROM item JOIN author
			WHERE i_a_id = a_id AND i_subject CONTAINS 'BIOGRAPHIES'
			ORDER BY i_pub_date DESC LIMIT 45`,
	`SELECT o_id, o_date_time, o_total, o_status FROM orders
			WHERE o_c_uname = 'c0000042'
			ORDER BY o_date_time DESC LIMIT 13`,
	`SELECT owner, timestamp FROM thoughts WHERE text = 't9999'`,
	`SELECT i_id, i_title FROM item
			WHERE i_subject CONTAINS 'BIOGRAPHIES'
			ORDER BY i_pub_date DESC LIMIT 899`,
}

// parseSeeds reads the FuzzParse seed corpus: file name → input.
func parseSeeds(t *testing.T) map[string]string {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzParse")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a one-string seed", e.Name())
		}
		quoted, ok := strings.CutPrefix(lines[1], "string(")
		if !ok || !strings.HasSuffix(quoted, ")") {
			t.Fatalf("%s: not a one-string seed", e.Name())
		}
		src, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		seeds[e.Name()] = src
	}
	return seeds
}

// TestLexAllocations pins the lexer at one allocation a statement, its
// token slice: keywords take the keyword table's spelling, and every
// other token's text is a slice of the source, but for a literal with a
// doubled quote, which pays one string. It covers every SELECT, INSERT,
// UPDATE and DELETE seed that lexes, and the prepare_cold shapes.
func TestLexAllocations(t *testing.T) {
	srcs := map[string]string{}
	for name, src := range parseSeeds(t) {
		toks, err := lex(src)
		if err != nil || toks[0].kind != tokKeyword {
			continue
		}
		switch toks[0].text {
		case "SELECT", "INSERT", "UPDATE", "DELETE":
			srcs[name] = src
		}
	}
	for i, src := range coldShapes {
		srcs["prepare_cold shape "+strconv.Itoa(i)] = src
	}
	if len(srcs) < 35 {
		t.Fatalf("%d statements to lex, want the SELECT and DML seeds and the 10 shapes, 35 at least", len(srcs))
	}
	for name, src := range srcs {
		toks, _ := lex(src)
		want := 1.0
		for _, tok := range toks {
			if tok.kind == tokString && strings.Contains(tok.text, "'") {
				want++ // only a doubled quote puts a quote in a literal
			}
		}
		if got := testing.AllocsPerRun(100, func() { _, _ = lex(src) }); got != want {
			t.Errorf("%s: lex made %v allocations, want %v", name, got, want)
		}
	}
}

// TestLexStringLiterals: a literal is the source between its quotes,
// and a doubled quote is one quote; an unterminated literal is an error
// at its opening quote.
func TestLexStringLiterals(t *testing.T) {
	for _, tc := range []struct {
		src  string
		toks []token
		err  string
	}{
		{src: `''`, toks: []token{{tokString, "", 0}, {tokEOF, "", 2}}},
		{src: `'it''s'`, toks: []token{{tokString, "it's", 0}, {tokEOF, "", 7}}},
		{src: `'a'''`, toks: []token{{tokString, "a'", 0}, {tokEOF, "", 5}}},
		{src: `a = '''' , 'x''''y'`, toks: []token{{tokIdent, "a", 0}, {tokSymbol, "=", 2},
			{tokString, "'", 4}, {tokSymbol, ",", 9}, {tokString, "x''y", 11}, {tokEOF, "", 19}}},
		{src: `'abc`, err: "syntax error at offset 0: unterminated string literal"},
		{src: `'abc''`, err: "syntax error at offset 0: unterminated string literal"},
		{src: `a = 'abc''`, err: "syntax error at offset 4: unterminated string literal"},
	} {
		toks, err := lex(tc.src)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("lex(%q) = %v, %v; want error %q", tc.src, toks, err, tc.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(toks, tc.toks) {
			t.Errorf("lex(%q) = %v, %v; want %v", tc.src, toks, err, tc.toks)
		}
	}
}

// TestKeywordSpelling: keywords match in any ASCII case and carry the
// upper-case spelling, and a keyword read as an identifier keeps the
// spelling of the source.
func TestKeywordSpelling(t *testing.T) {
	want := []token{{tokKeyword, "SELECT", 0}, {tokKeyword, "SELECT", 7}, {tokKeyword, "FROM", 14}, {tokEOF, "", 18}}
	if toks, err := lex(`sElEcT Select FROM`); err != nil || !reflect.DeepEqual(toks, want) {
		t.Errorf("lex = %v, %v; want %v", toks, err, want)
	}
	s := mustSelect(t, `sElEcT tImEsTaMp, Token FrOm thoughts WhErE owner = ? OrDeR bY timestamp dEsC lImIt 5`)
	if s.Items[0].Col.Column != "tImEsTaMp" || s.Items[1].Col.Column != "Token" || s.OrderBy[0].Col.Column != "timestamp" {
		t.Errorf("keyword identifiers = %v, %v; want the source spelling", s.Items, s.OrderBy)
	}
	if !s.OrderBy[0].Desc || s.Limit != 5 {
		t.Errorf("ORDER BY %v LIMIT %d, want timestamp DESC LIMIT 5", s.OrderBy, s.Limit)
	}
	stmt, err := Parse(`CREATE TABLE thoughts (owner VARCHAR(20), timestamp INT, PRIMARY KEY (owner, timestamp))`)
	if err != nil {
		t.Fatal(err)
	}
	if cols := stmt.(*CreateTable).Table.Columns; cols[1].Name != "timestamp" {
		t.Errorf("columns = %+v, want the second named timestamp", cols)
	}
}

// TestUnicodeIdentifiers: identifiers are decoded as UTF-8, so a
// non-ASCII letter is part of a name; an identifier with a non-ASCII
// byte is never a keyword (ſ upper-cases to S in Unicode, not in ASCII);
// and a byte that is no letter, or no UTF-8 at all, is an error at its
// first byte.
func TestUnicodeIdentifiers(t *testing.T) {
	for src, want := range map[string]string{
		`SELECT café FROM t`:   "café",
		`SELECT naïve FROM t`:  "naïve",
		`SELECT ª FROM t`:      "ª",
		`SELECT ſelect FROM t`: "ſelect",
		`SELECT x٣ FROM t`:     "x٣",
	} {
		s := mustSelect(t, src)
		if got := s.Items[0].Col.Column; got != want {
			t.Errorf("Parse(%q) projects %q, want %q", src, got, want)
		}
		if printed := s.String(); printed != src {
			t.Errorf("Parse(%q) prints %q", src, printed)
		}
	}
	for src, want := range map[string]string{
		"SELECT caf\xe9 FROM t":   `syntax error at offset 10: unexpected character '�'`,
		"SELECT \xc3 FROM t":      `syntax error at offset 7: unexpected character '�'`,
		`SELECT a FROM t WHERE €`: `syntax error at offset 22: unexpected character '€'`,
		`SELECT ٣ FROM t`:         `syntax error at offset 7: unexpected character '٣'`,
		`SELECT a FROM t WHERE @`: `syntax error at offset 22: unexpected character '@'`,
	} {
		if _, err := Parse(src); err == nil || err.Error() != want {
			t.Errorf("Parse(%q) = %v, want %q", src, err, want)
		}
	}
}
