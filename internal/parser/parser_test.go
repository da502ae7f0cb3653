package parser

import (
	"strings"
	"testing"

	"piql/internal/value"
)

func mustSelect(t *testing.T, src string) *Select {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	sel, ok := stmt.(*Select)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *Select", src, stmt)
	}
	return sel
}

// TestThoughtstreamQuery parses the paper's Figure 3(a) query verbatim.
func TestThoughtstreamQuery(t *testing.T) {
	src := `SELECT thoughts.*
	        FROM subscriptions s JOIN thoughts t
	        WHERE t.owner = s.target
	          AND s.owner = [1: uname]
	          AND s.approved = true
	        ORDER BY t.timestamp DESC
	        LIMIT 10`
	s := mustSelect(t, src)
	if len(s.From) != 2 || s.From[0].Alias != "s" || s.From[1].Alias != "t" {
		t.Fatalf("From = %v", s.From)
	}
	if len(s.Where) != 3 {
		t.Fatalf("Where = %v", s.Where)
	}
	join := s.Where[0]
	if join.Left != (ColumnRef{Table: "t", Column: "owner"}) {
		t.Fatalf("join left = %v", join.Left)
	}
	if right, ok := join.Right.(ColumnRef); !ok || right != (ColumnRef{Table: "s", Column: "target"}) {
		t.Fatalf("join right = %v", join.Right)
	}
	if p, ok := s.Where[1].Right.(Param); !ok || p.Index != 1 || p.Name != "uname" {
		t.Fatalf("param = %v", s.Where[1].Right)
	}
	if lit, ok := s.Where[2].Right.(Literal); !ok || !lit.Val.Truthy() {
		t.Fatalf("approved literal = %v", s.Where[2].Right)
	}
	if len(s.OrderBy) != 1 || !s.OrderBy[0].Desc {
		t.Fatalf("OrderBy = %v", s.OrderBy)
	}
	if s.Limit != 10 {
		t.Fatalf("Limit = %d", s.Limit)
	}
	if !s.Items[0].Star || s.Items[0].StarOf != "thoughts" {
		t.Fatalf("Items = %v", s.Items)
	}
}

// TestSearchByTitleQuery parses the paper's Section 5.3 query with
// CONTAINS substituted for the tokenized LIKE, as Table 1 prescribes.
func TestSearchByTitleQuery(t *testing.T) {
	src := `SELECT I_TITLE, I_ID, A_FNAME, A_LNAME
	        FROM ITEM, AUTHOR
	        WHERE I_A_ID = A_ID AND I_TITLE CONTAINS [1: titleWord]
	        ORDER BY I_TITLE
	        LIMIT 50`
	s := mustSelect(t, src)
	if len(s.Items) != 4 || s.Items[0].Col.Column != "I_TITLE" {
		t.Fatalf("Items = %v", s.Items)
	}
	if len(s.From) != 2 {
		t.Fatalf("From = %v", s.From)
	}
	if s.Where[1].Op != OpContains {
		t.Fatalf("op = %v", s.Where[1].Op)
	}
	if s.Limit != 50 {
		t.Fatalf("Limit = %d", s.Limit)
	}
}

func TestPaginateClause(t *testing.T) {
	s := mustSelect(t, `SELECT * FROM thoughts WHERE owner = ? ORDER BY timestamp DESC PAGINATE 10`)
	if s.Paginate != 10 || s.Limit != 0 {
		t.Fatalf("Paginate = %d, Limit = %d", s.Paginate, s.Limit)
	}
	if p, ok := s.Where[0].Right.(Param); !ok || p.Index != 1 {
		t.Fatalf("positional param = %v", s.Where[0].Right)
	}
}

func TestLimitAndPaginateMutuallyExclusive(t *testing.T) {
	_, err := Parse(`SELECT * FROM t WHERE a = 1 LIMIT 5 PAGINATE 5`)
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("err = %v", err)
	}
}

func TestInListPredicate(t *testing.T) {
	s := mustSelect(t, `SELECT * FROM subscriptions WHERE target = [1: u] AND owner IN ([2: a], [3: b], 'carol')`)
	p := s.Where[1]
	if p.InList == nil || len(p.InList) != 3 {
		t.Fatalf("InList = %v", p.InList)
	}
	if lit, ok := p.InList[2].(Literal); !ok || lit.Val.S != "carol" {
		t.Fatalf("InList[2] = %v", p.InList[2])
	}
}

func TestJoinWithOn(t *testing.T) {
	s := mustSelect(t, `SELECT * FROM orders o JOIN order_line ol ON ol.ol_o_id = o.o_id WHERE o.o_id = ?`)
	if len(s.From) != 2 || len(s.Where) != 2 {
		t.Fatalf("From=%v Where=%v", s.From, s.Where)
	}
}

func TestAggregatesAndGroupBy(t *testing.T) {
	s := mustSelect(t, `SELECT owner, COUNT(*), MAX(timestamp) FROM thoughts WHERE owner = ? GROUP BY owner LIMIT 1`)
	if s.Items[1].Agg != AggCount || !s.Items[1].AggStar {
		t.Fatalf("Items[1] = %v", s.Items[1])
	}
	if s.Items[2].Agg != AggMax || s.Items[2].Col.Column != "timestamp" {
		t.Fatalf("Items[2] = %v", s.Items[2])
	}
	if len(s.GroupBy) != 1 {
		t.Fatalf("GroupBy = %v", s.GroupBy)
	}
}

func TestLiteralKinds(t *testing.T) {
	s := mustSelect(t, `SELECT * FROM t WHERE a = 5 AND b = -3 AND c = 2.5 AND d = 'x''y' AND e = false AND f = NULL LIMIT 1`)
	wants := []value.Value{value.Int(5), value.Int(-3), value.Float(2.5), value.Str("x'y"), value.Bool(false), value.Null()}
	for i, w := range wants {
		lit, ok := s.Where[i].Right.(Literal)
		if !ok || !value.Equal(lit.Val, w) {
			t.Errorf("Where[%d].Right = %v, want %v", i, s.Where[i].Right, w)
		}
	}
}

func TestInsertUpdateDelete(t *testing.T) {
	stmt, err := Parse(`INSERT INTO users (username, password) VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*Insert)
	if ins.Table != "users" || len(ins.Columns) != 2 || len(ins.Values) != 2 {
		t.Fatalf("ins = %+v", ins)
	}
	if p := ins.Values[1].(Param); p.Index != 2 {
		t.Fatalf("second positional param index = %d", p.Index)
	}

	stmt, err = Parse(`UPDATE users SET password = ?, hometown = 'SF' WHERE username = ?`)
	if err != nil {
		t.Fatal(err)
	}
	upd := stmt.(*Update)
	if len(upd.Set) != 2 || upd.Set[0].Column != "password" {
		t.Fatalf("upd = %+v", upd)
	}
	if p := upd.Set[0].Value.(Param); p.Index != 1 {
		t.Fatalf("set param index = %d", p.Index)
	}
	if p := upd.Where[0].Right.(Param); p.Index != 2 {
		t.Fatalf("where param index = %d", p.Index)
	}

	stmt, err = Parse(`DELETE FROM subscriptions WHERE owner = ? AND target = ?`)
	if err != nil {
		t.Fatal(err)
	}
	del := stmt.(*Delete)
	if del.Table != "subscriptions" || len(del.Where) != 2 {
		t.Fatalf("del = %+v", del)
	}
}

func TestCreateTableDDL(t *testing.T) {
	stmt, err := Parse(`CREATE TABLE Subscriptions (
		ownerUserId INT,
		targetUserId INT,
		approved BOOLEAN,
		note VARCHAR(255) NOT NULL,
		PRIMARY KEY (ownerUserId, targetUserId),
		FOREIGN KEY (targetUserId) REFERENCES Users,
		CARDINALITY LIMIT 100 (ownerUserId)
	)`)
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTable)
	tab := ct.Table
	if tab.Name != "Subscriptions" || len(tab.Columns) != 4 {
		t.Fatalf("table = %+v", tab)
	}
	if tab.Columns[3].Type != value.TypeString || tab.Columns[3].MaxLen != 255 {
		t.Fatalf("note column = %+v", tab.Columns[3])
	}
	if len(tab.PrimaryKey) != 2 || tab.PrimaryKey[0] != "ownerUserId" {
		t.Fatalf("pk = %v", tab.PrimaryKey)
	}
	if len(tab.ForeignKeys) != 1 || tab.ForeignKeys[0].RefTable != "Users" {
		t.Fatalf("fk = %v", tab.ForeignKeys)
	}
	if len(tab.Cardinalities) != 1 || tab.Cardinalities[0].Limit != 100 {
		t.Fatalf("card = %v", tab.Cardinalities)
	}
}

func TestCreateIndexDDL(t *testing.T) {
	stmt, err := Parse(`CREATE INDEX title_idx ON Items (TOKEN(I_TITLE), I_TITLE, I_ID DESC)`)
	if err != nil {
		t.Fatal(err)
	}
	ci := stmt.(*CreateIndex)
	ix := ci.Index
	if ix.Table != "Items" || len(ix.Fields) != 3 {
		t.Fatalf("ix = %+v", ix)
	}
	if !ix.Fields[0].Token || ix.Fields[0].Column != "I_TITLE" {
		t.Fatalf("field 0 = %+v", ix.Fields[0])
	}
	if !ix.Fields[2].Desc {
		t.Fatalf("field 2 = %+v", ix.Fields[2])
	}
}

// syntaxErrorCases are statements Parse must refuse; TestParseGolden
// pins the error each gets.
var syntaxErrorCases = []string{
	``,
	`SELECT`,
	`SELECT * FROM`,
	`SELECT * FROM t WHERE`,
	`SELECT * FROM t WHERE a OR b`,
	`SELECT * FROM t WHERE a = 1 OR b = 2`,
	`SELECT * FROM t LIMIT 0`,
	`SELECT * FROM t LIMIT -5`,
	`SELECT * FROM t WHERE a = 'unterminated`,
	`SELECT * FROM t WHERE a = [0: x]`,
	`SELECT * FROM t WHERE a = [1: x`,
	`SELECT * FROM t; SELECT * FROM u`,
	`INSERT INTO t (a, b) VALUES (1)`,
	`CREATE TABLE t (a FOO)`,
	`CREATE TABLE t (a INT, PRIMARY KEY (a), PRIMARY KEY (a))`,
	`CREATE TABLE t (a INT, CARDINALITY LIMIT 0 (a))`,
	`CREATE NONSENSE x`,
	`SELECT SUM(*) FROM t`,
	`SELECT * FROM t WHERE a @ 1`,
	`SELECT * FROM t WHERE a = 1.2.3`,
	`SELECT a AS FROM t`,
	`SELECT COUNT(*) AS FROM t`,
}

func TestSyntaxErrors(t *testing.T) {
	for _, src := range syntaxErrorCases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

// TestPositiveIntErrors: a count that is not a positive integer is
// reported at the number itself, naming the clause that wanted it.
func TestPositiveIntErrors(t *testing.T) {
	for src, want := range map[string]string{
		`SELECT * FROM t LIMIT 0`:                         `syntax error at offset 22: LIMIT requires a positive integer literal, got "0"`,
		`SELECT * FROM t PAGINATE 1.5`:                    `syntax error at offset 25: PAGINATE requires a positive integer literal, got "1.5"`,
		`CREATE TABLE t (a INT, CARDINALITY LIMIT 0 (a))`: `syntax error at offset 41: CARDINALITY LIMIT requires a positive integer literal, got "0"`,
		`CREATE TABLE t (a VARCHAR(0))`:                   `syntax error at offset 26: VARCHAR length requires a positive integer literal, got "0"`,
		`SELECT * FROM t WHERE a = [0: x]`:                `syntax error at offset 27: parameter index requires a positive integer literal, got "0"`,
	} {
		if _, err := Parse(src); err == nil || err.Error() != want {
			t.Errorf("Parse(%q) = %v, want %q", src, err, want)
		}
	}
}

// TestStringRoundTrip: rendering a parsed statement and reparsing it
// yields the same rendering (a stable canonical form).
func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		`SELECT thoughts.* FROM subscriptions s JOIN thoughts t WHERE t.owner = s.target AND s.owner = [1: uname] ORDER BY t.timestamp DESC LIMIT 10`,
		`SELECT a, b FROM t WHERE a = 5 AND b CONTAINS [1: w] PAGINATE 20`,
		`INSERT INTO t (a, b) VALUES (1, 'x')`,
		`UPDATE t SET a = 2 WHERE b = 'k'`,
		`DELETE FROM t WHERE a = 1`,
		`SELECT COUNT(*) FROM t WHERE k = 1 GROUP BY a LIMIT 1`,
	}
	for _, src := range srcs {
		stmt, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		rendered := stmt.String()
		stmt2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("reparse of %q: %v", rendered, err)
		}
		if stmt2.String() != rendered {
			t.Errorf("not canonical:\n  first:  %s\n  second: %s", rendered, stmt2.String())
		}
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	s := mustSelect(t, "SELECT * -- trailing comment\nFROM t -- another\nWHERE a = 1 LIMIT 1")
	if len(s.Where) != 1 {
		t.Fatalf("Where = %v", s.Where)
	}
}

func TestOperatorVariants(t *testing.T) {
	s := mustSelect(t, `SELECT * FROM t WHERE a != 1 AND b <> 2 AND c <= 3 AND d >= 4 AND e < 5 AND f > 6 AND g LIKE 'x' LIMIT 1`)
	wantOps := []CompareOp{OpNe, OpNe, OpLe, OpGe, OpLt, OpGt, OpLike}
	for i, w := range wantOps {
		if s.Where[i].Op != w {
			t.Errorf("op[%d] = %v, want %v", i, s.Where[i].Op, w)
		}
	}
}
