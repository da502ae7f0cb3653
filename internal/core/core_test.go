package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"piql/internal/parser"
	"piql/internal/schema"
	"piql/internal/value"
)

// scadrCatalog builds the SCADr schema from Section 8.1.2: users,
// subscriptions (with the paper's cardinality limit), thoughts.
func scadrCatalog(t *testing.T) *schema.Catalog {
	t.Helper()
	cat := schema.NewCatalog()
	ddls := []string{
		`CREATE TABLE users (
			username VARCHAR(20),
			password VARCHAR(20),
			hometown VARCHAR(30),
			PRIMARY KEY (username)
		)`,
		`CREATE TABLE subscriptions (
			owner VARCHAR(20),
			target VARCHAR(20),
			approved BOOLEAN,
			PRIMARY KEY (owner, target),
			FOREIGN KEY (target) REFERENCES users,
			CARDINALITY LIMIT 100 (owner)
		)`,
		`CREATE TABLE thoughts (
			owner VARCHAR(20),
			timestamp INT,
			text VARCHAR(140),
			PRIMARY KEY (owner, timestamp)
		)`,
	}
	for _, ddl := range ddls {
		stmt, err := parser.Parse(ddl)
		if err != nil {
			t.Fatalf("parse DDL: %v", err)
		}
		if err := cat.AddTable(stmt.(*parser.CreateTable).Table); err != nil {
			t.Fatalf("add table: %v", err)
		}
	}
	return cat
}

func compile(t *testing.T, cat *schema.Catalog, src string) *Plan {
	t.Helper()
	stmt, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan, err := Compile(cat, stmt.(*parser.Select))
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return plan
}

func compileErr(t *testing.T, cat *schema.Catalog, src string) *NotScaleIndependentError {
	t.Helper()
	stmt, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Compile(cat, stmt.(*parser.Select))
	if err == nil {
		t.Fatalf("compile %q succeeded, want scale-independence error", src)
	}
	var nsi *NotScaleIndependentError
	if !errors.As(err, &nsi) {
		t.Fatalf("compile %q: error %v is not a NotScaleIndependentError", src, err)
	}
	return nsi
}

const thoughtstreamSQL = `
	SELECT thoughts.*
	FROM subscriptions s JOIN thoughts
	WHERE thoughts.owner = s.target
	  AND s.owner = [1: uname]
	  AND s.approved = true
	ORDER BY thoughts.timestamp DESC
	LIMIT 10`

// TestThoughtstreamPlan reproduces the Figure 3 compilation end to end.
func TestThoughtstreamPlan(t *testing.T) {
	cat := scadrCatalog(t)
	plan := compile(t, cat, thoughtstreamSQL)

	// Physical shape (Fig. 3d): Project → Stop 10 → SortedIndexJoin →
	// IndexScan(subscriptions, residual approved).
	proj, ok := plan.Root.(*LocalProject)
	if !ok {
		t.Fatalf("root = %T", plan.Root)
	}
	stop, ok := proj.Child().(*LocalStop)
	if !ok || stop.K != 10 {
		t.Fatalf("below project: %s", proj.Child().Label())
	}
	join, ok := stop.Child().(*SortedIndexJoin)
	if !ok {
		t.Fatalf("below stop: %s", stop.Child().Label())
	}
	if join.PerKeyLimit != 10 {
		t.Errorf("SortedIndexJoin limit hint = %d, want 10", join.PerKeyLimit)
	}
	if join.Stop != 10 || tuplesOut(plan, join) != 10 {
		t.Errorf("SortedIndexJoin stop = %d, tuples <= %d: the join is the top remote operator, it should stop at the page",
			join.Stop, tuplesOut(plan, join))
	}
	if join.Ascending {
		t.Error("timestamp DESC should scan the (owner, timestamp) primary index in reverse")
	}
	if !join.Index.Primary {
		t.Errorf("join should reuse thoughts' primary index, got %s", join.Index)
	}
	if join.NeedDeref {
		t.Error("primary-index join must not dereference")
	}
	scan, ok := join.Child().(*IndexScan)
	if !ok {
		t.Fatalf("join child: %s", join.Child().Label())
	}
	if scan.DataStopCard != 100 {
		t.Errorf("subscriptions data-stop card = %d, want 100", scan.DataStopCard)
	}
	if len(scan.Residual) != 1 || !strings.Contains(scan.Residual[0].String(), "approved") {
		t.Errorf("approved should be a residual local selection, got %v", scan.Residual)
	}
	if !scan.Index.Primary {
		t.Errorf("subscriptions scan should use the (owner, target) primary index, got %s", scan.Index)
	}

	// Static bounds: 1 range request + 100 sorted-join range requests;
	// tuples: the merge of 100 subs × 10 thoughts stops at the page.
	if got := plan.OpBound(); got != 101 {
		t.Errorf("OpBound = %d, want 101", got)
	}
	if got := plan.TupleBound(); got != 10 {
		t.Errorf("TupleBound = %d, want 10 (after stop)", got)
	}
}

// TestThoughtstreamLogicalExplain checks the Phase I normal form from
// Fig. 3(c): the data-stop sits below `approved` and above `owner =`.
func TestThoughtstreamLogicalExplain(t *testing.T) {
	cat := scadrCatalog(t)
	plan := compile(t, cat, thoughtstreamSQL)
	logical := plan.ExplainLogical()
	above := strings.Index(logical, "approved")
	ds := strings.Index(logical, "DataStop 100")
	below := strings.Index(logical, "Selection s.owner =")
	if above < 0 || ds < 0 || below < 0 {
		t.Fatalf("logical explain missing pieces:\n%s", logical)
	}
	if !(above < ds && ds < below) {
		t.Errorf("data-stop not pushed past the approved predicate:\n%s", logical)
	}
}

// TestThoughtstreamWithoutCardinalityRejected reproduces the assistant
// interaction from Section 6.4: drop the constraint and the compiler
// must reject the query, pointing at subscriptions.
func TestThoughtstreamWithoutCardinalityRejected(t *testing.T) {
	cat := schema.NewCatalog()
	for _, ddl := range []string{
		`CREATE TABLE users (username VARCHAR(20), PRIMARY KEY (username))`,
		`CREATE TABLE subscriptions (owner VARCHAR(20), target VARCHAR(20), approved BOOLEAN, PRIMARY KEY (owner, target))`,
		`CREATE TABLE thoughts (owner VARCHAR(20), timestamp INT, text VARCHAR(140), PRIMARY KEY (owner, timestamp))`,
	} {
		stmt, _ := parser.Parse(ddl)
		if err := cat.AddTable(stmt.(*parser.CreateTable).Table); err != nil {
			t.Fatal(err)
		}
	}
	nsi := compileErr(t, cat, thoughtstreamSQL)
	if !strings.Contains(nsi.Segment, "subscriptions") && !strings.Contains(nsi.Segment, "s") {
		t.Errorf("segment should point at subscriptions: %q", nsi.Segment)
	}
	found := false
	for _, s := range nsi.Suggestions {
		if strings.Contains(s, "CARDINALITY LIMIT") {
			found = true
		}
	}
	if !found {
		t.Errorf("assistant should suggest a cardinality limit: %v", nsi.Suggestions)
	}
}

// TestSubscriberIntersectionPlan: the Section 8.3 query compiles to
// bounded random lookups (PKLookup) with one key per IN element.
func TestSubscriberIntersectionPlan(t *testing.T) {
	cat := scadrCatalog(t)
	plan := compile(t, cat, `
		SELECT * FROM subscriptions
		WHERE target = [1: targetUser]
		  AND owner IN ([2: f1], [3: f2], [4: f3], [5: f4], [6: f5])`)
	proj := plan.Root.(*LocalProject)
	lk, ok := proj.Child().(*PKLookup)
	if !ok {
		t.Fatalf("expected PKLookup, got %s", proj.Child().Label())
	}
	if len(lk.Keys) != 5 {
		t.Errorf("keys = %d, want 5", len(lk.Keys))
	}
	if got := plan.OpBound(); got != 5 {
		t.Errorf("OpBound = %d, want 5", got)
	}
}

// TestFindUserPlan: single-record lookup by primary key (Class I).
func TestFindUserPlan(t *testing.T) {
	cat := scadrCatalog(t)
	plan := compile(t, cat, `SELECT * FROM users WHERE username = [1: u]`)
	if _, ok := plan.Root.(*LocalProject).Child().(*PKLookup); !ok {
		t.Fatalf("plan:\n%s", plan.Explain())
	}
	if plan.OpBound() != 1 {
		t.Errorf("OpBound = %d, want 1", plan.OpBound())
	}
}

// TestRecentThoughtsPlan: prefix scan over the primary index in reverse,
// bounded purely by the PAGINATE stop.
func TestRecentThoughtsPlan(t *testing.T) {
	cat := scadrCatalog(t)
	plan := compile(t, cat, `
		SELECT * FROM thoughts WHERE owner = [1: u]
		ORDER BY timestamp DESC PAGINATE 10`)
	scan, ok := plan.Root.(*LocalProject).Child().(*LocalStop).Child().(*IndexScan)
	if !ok {
		t.Fatalf("plan:\n%s", plan.Explain())
	}
	if scan.LimitHint != 10 || scan.Ascending || !scan.Index.Primary || scan.NeedDeref {
		t.Errorf("scan = %s", scan.Label())
	}
	if plan.PageSize != 10 {
		t.Errorf("PageSize = %d", plan.PageSize)
	}
	if plan.OpBound() != 1 {
		t.Errorf("OpBound = %d, want 1", plan.OpBound())
	}
}

// TestUsersFollowedPlan: subscriptions by owner joined FK-style to users.
func TestUsersFollowedPlan(t *testing.T) {
	cat := scadrCatalog(t)
	plan := compile(t, cat, `
		SELECT u.* FROM subscriptions s JOIN users u
		WHERE u.username = s.target AND s.owner = [1: me]`)
	proj := plan.Root.(*LocalProject)
	fk, ok := proj.Child().(*IndexFKJoin)
	if !ok {
		t.Fatalf("expected IndexFKJoin, got %s", proj.Child().Label())
	}
	scan, ok := fk.Child().(*IndexScan)
	if !ok || scan.DataStopCard != 100 {
		t.Fatalf("join child: %s", fk.Child().Label())
	}
	// 1 range + 100 dereferencing gets.
	if got := plan.OpBound(); got != 101 {
		t.Errorf("OpBound = %d, want 101", got)
	}
}

// TestTokenSearchPlan reproduces the Section 5.3 index selection: the
// compiler derives Items(Token(I_TITLE), I_TITLE, I_ID) for the search-
// by-title query.
func TestTokenSearchPlan(t *testing.T) {
	cat := schema.NewCatalog()
	for _, ddl := range []string{
		`CREATE TABLE author (a_id INT, a_fname VARCHAR(20), a_lname VARCHAR(20), PRIMARY KEY (a_id))`,
		`CREATE TABLE item (i_id INT, i_a_id INT, i_title VARCHAR(60), i_pub_date INT, i_subject VARCHAR(60),
			PRIMARY KEY (i_id), FOREIGN KEY (i_a_id) REFERENCES author)`,
	} {
		stmt, _ := parser.Parse(ddl)
		if err := cat.AddTable(stmt.(*parser.CreateTable).Table); err != nil {
			t.Fatal(err)
		}
	}
	plan := compile(t, cat, `
		SELECT i_title, i_id, a_fname, a_lname
		FROM item JOIN author
		WHERE i_a_id = a_id AND i_title CONTAINS [1: titleWord]
		ORDER BY i_title
		LIMIT 50`)
	// The base scan must use a token index with i_title then i_id.
	var scan *IndexScan
	for n := plan.Root; n != nil; n = n.Child() {
		if s, ok := n.(*IndexScan); ok {
			scan = s
		}
	}
	if scan == nil {
		t.Fatalf("no IndexScan in plan:\n%s", plan.Explain())
	}
	sig := scan.Index.String()
	if !strings.Contains(sig, "Token(i_title)") || !strings.Contains(sig, "i_id") {
		t.Errorf("index = %s, want Token(i_title), i_title, i_id", sig)
	}
	if scan.LimitHint != 50 {
		t.Errorf("limit hint = %d, want 50", scan.LimitHint)
	}
	// 1 range request + 50 dereferencing gets + 50 author gets.
	if got := plan.OpBound(); got != 101 {
		t.Errorf("OpBound = %d, want 101", got)
	}
	var fk *IndexFKJoin
	for n := plan.Root; n != nil; n = n.Child() {
		if j, ok := n.(*IndexFKJoin); ok {
			fk = j
		}
	}
	if fk == nil {
		t.Fatalf("no IndexFKJoin in plan:\n%s", plan.Explain())
	}
}

func TestLimitWithoutJoinIsClassI(t *testing.T) {
	cat := scadrCatalog(t)
	// Fixed LIMIT, no joins, no predicates: bounded (Class I).
	plan := compile(t, cat, `SELECT * FROM users LIMIT 25`)
	if plan.OpBound() == Unbounded || plan.TupleBound() != 25 {
		t.Errorf("bounds = %d ops, %d tuples", plan.OpBound(), plan.TupleBound())
	}
}

// rejectionCases are the unbounded queries TestRejections refuses; their
// full errors are in testdata/refusals.golden.
var rejectionCases = []struct {
	src     string
	wantSug string // substring expected in some suggestion
}{
	{`SELECT * FROM users`, "PAGINATE"},
	{`SELECT * FROM thoughts WHERE owner = [1: u]`, "LIMIT"},
	{`SELECT * FROM users WHERE hometown = 'SF'`, "CARDINALITY LIMIT"},
	{`SELECT * FROM users WHERE username LIKE 'bob%' LIMIT 5`, "CONTAINS"},
	{`SELECT * FROM users, thoughts LIMIT 5`, "join predicate"},
	{`SELECT * FROM thoughts WHERE owner != 'x' LIMIT 5`, ""},
}

func TestRejections(t *testing.T) {
	cat := scadrCatalog(t)
	for _, c := range rejectionCases {
		nsi := compileErr(t, cat, c.src)
		if c.wantSug == "" {
			continue
		}
		found := false
		for _, s := range nsi.Suggestions {
			if strings.Contains(s, c.wantSug) {
				found = true
			}
		}
		if !found {
			t.Errorf("%q: suggestions %v missing %q", c.src, nsi.Suggestions, c.wantSug)
		}
	}
}

// TestIndexReuseAcrossCompiles: an index a plan asked for and the caller
// registered serves the next compile; and a plan that reads the same new
// index twice names it once.
func TestIndexReuseAcrossCompiles(t *testing.T) {
	cat := scadrCatalog(t)
	stmt, err := parser.Parse(`CREATE TABLE follows (a VARCHAR(20), b VARCHAR(20), PRIMARY KEY (a, b), CARDINALITY LIMIT 10 (b))`)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(stmt.(*parser.CreateTable).Table); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		table, sql string
		asks       int // for new indexes
	}{
		{"users", `SELECT * FROM users WHERE hometown = 'SF' AND username = 'x'`, 0},
		// followers of followers: both relations are read through (b, a)
		{"follows", `SELECT f2.a FROM follows f1 JOIN follows f2 WHERE f1.b = [1: who] AND f2.b = f1.a`, 1},
	} {
		// register hands a plan's indexes to the catalog and counts the
		// ones the catalog did not hold.
		register := func(p *Plan) (asked int) {
			for _, ix := range p.RequiredIndexes {
				if ix.EntryLayout() == nil {
					asked++
				}
				if _, err := cat.AddIndex(ix); err != nil {
					t.Fatal(err)
				}
			}
			return asked
		}
		p1 := compile(t, cat, tc.sql)
		if asked := register(p1); asked != tc.asks {
			t.Errorf("%s: the plan names %d new indexes, want %d:\n%s", tc.sql, asked, tc.asks, p1.Explain())
		}
		before := len(cat.Indexes(tc.table))
		if asked := register(compile(t, cat, tc.sql)); asked != 0 {
			t.Errorf("%s: recompilation names %d new indexes", tc.sql, asked)
		}
		if after := len(cat.Indexes(tc.table)); before != after {
			t.Errorf("%s: recompilation created %d new indexes", tc.sql, after-before)
		}
	}
}

func TestAggregateOverBoundedInput(t *testing.T) {
	cat := scadrCatalog(t)
	plan := compile(t, cat, `
		SELECT COUNT(*) FROM subscriptions WHERE owner = [1: u]`)
	if _, ok := plan.Root.(*LocalStop); ok {
		t.Fatal("no stop expected")
	}
	agg, ok := plan.Root.(*LocalAgg)
	if !ok {
		t.Fatalf("root = %T", plan.Root)
	}
	if _, ok := agg.Child().(*IndexScan); !ok {
		t.Fatalf("agg child = %s", agg.Child().Label())
	}
	if plan.OpBound() == Unbounded {
		t.Error("aggregate plan unbounded")
	}
}

func TestExplainOutputs(t *testing.T) {
	cat := scadrCatalog(t)
	plan := compile(t, cat, thoughtstreamSQL)
	phys := plan.Explain()
	for _, want := range []string{"SortedIndexJoin", "IndexScan", "Stop(10)", "bound: 101"} {
		if !strings.Contains(phys, want) {
			t.Errorf("physical explain missing %q:\n%s", want, phys)
		}
	}
	logical := plan.ExplainLogical()
	for _, want := range []string{"Stop 10", "Sort", "Join", "DataStop 100", "Relation subscriptions"} {
		if !strings.Contains(logical, want) {
			t.Errorf("logical explain missing %q:\n%s", want, logical)
		}
	}
}

// TestKeyExprString: a key expression keeps no pre-rendered text, so
// String words each kind on demand — a literal as its value, a
// parameter as it was written, a child column by the name it was given
// — in exactly the text labels and EXPLAIN have always shown.
func TestKeyExprString(t *testing.T) {
	for _, tc := range []struct {
		e    KeyExpr
		want string
	}{
		{constExpr(value.Str(`it's "x"`)), `"it's \"x\""`},
		{constExpr(value.Int(-42)), "-42"},
		{constExpr(value.Float(2.5)), "2.5"},
		{constExpr(value.Null()), "NULL"},
		{constExpr(value.Bool(true)), "true"},
		{constExpr(value.Bytes([]byte{0x00, 0xff})), "x'00ff'"},
		{paramExpr(parser.Param{Index: 1, Name: "uname"}), "[1: uname]"},
		{paramExpr(parser.Param{Index: 3}), "[3]"},
		{childColExpr(4, qualName{&parser.TableRef{Table: "subscriptions", Alias: "s"}, "target"}), "s.target"},
		{childColExpr(2, qualName{col: "hometown"}), "hometown"},
	} {
		if got := tc.e.String(); got != tc.want {
			t.Errorf("%+v: String() = %q, want %q", tc.e, got, tc.want)
		}
	}
}

// TestExplainUnboundedHeader: the header of an unbounded plan's EXPLAIN
// states its totals the way its operator lines do, ∞ for no bound — and
// a stop above an unbounded scan still caps the tuples.
func TestExplainUnboundedHeader(t *testing.T) {
	cat := scadrCatalog(t)
	stmt, err := parser.Parse(`SELECT * FROM subscriptions WHERE target = [1: t] LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompileCostBased(cat, stmt.(*parser.Select))
	if err != nil {
		t.Fatal(err)
	}
	const want = "-- bound: ∞ key/value operations, 5 tuples\n"
	if got := plan.Explain(); !strings.HasPrefix(got, want) || !strings.Contains(got, "ops<=∞") {
		t.Errorf("EXPLAIN =\n%s\nwant it to open with %q", got, want)
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("The Quick-Brown fox_2, jumps!")
	want := []string{"the", "quick", "brown", "fox_2", "jumps"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tokenize = %v, want %v", got, want)
		}
	}
	if toks := Tokenize(""); len(toks) != 0 {
		t.Errorf("empty tokenize = %v", toks)
	}
}

func TestInequalityRangeScan(t *testing.T) {
	cat := scadrCatalog(t)
	plan := compile(t, cat, `
		SELECT * FROM thoughts
		WHERE owner = [1: u] AND timestamp > 1000
		ORDER BY timestamp DESC LIMIT 5`)
	scan, ok := plan.Root.(*LocalProject).Child().(*LocalStop).Child().(*IndexScan)
	if !ok {
		t.Fatalf("plan:\n%s", plan.Explain())
	}
	if scan.Lower == nil {
		t.Fatal("missing lower bound")
	}
	if scan.LimitHint != 5 {
		t.Errorf("limit hint = %d", scan.LimitHint)
	}
}

func TestRangeNotFirstSortColumnRejected(t *testing.T) {
	cat := scadrCatalog(t)
	// Inequality on timestamp but sort by text first: non-contiguous.
	compileErr(t, cat, `
		SELECT * FROM thoughts
		WHERE owner = [1: u] AND timestamp > 1000
		ORDER BY text, timestamp LIMIT 5`)
}

// stopCatalog is the schema of the stop-pushdown cases: a thought has a
// category, and only visible categories are shown.
func stopCatalog(t *testing.T, thoughtsCard string) *schema.Catalog {
	t.Helper()
	cat := schema.NewCatalog()
	for _, ddl := range []string{
		`CREATE TABLE users (username VARCHAR(20), PRIMARY KEY (username))`,
		`CREATE TABLE cats (cid INT, visible BOOLEAN, PRIMARY KEY (cid))`,
		`CREATE TABLE subs (owner VARCHAR(20), target VARCHAR(20), PRIMARY KEY (owner, target),
			FOREIGN KEY (target) REFERENCES users, CARDINALITY LIMIT 10 (owner))`,
		`CREATE TABLE thoughts (owner VARCHAR(20), ts INT, cid INT, PRIMARY KEY (owner, ts),
			FOREIGN KEY (cid) REFERENCES cats` + thoughtsCard + `)`,
	} {
		stmt, err := parser.Parse(ddl)
		if err != nil {
			t.Fatalf("parse DDL: %v", err)
		}
		if err := cat.AddTable(stmt.(*parser.CreateTable).Table); err != nil {
			t.Fatalf("add table: %v", err)
		}
	}
	return cat
}

// tuplesOut is the walk's bound on the tuples op hands the operator
// above it.
func tuplesOut(p *Plan, op Physical) int {
	out := Unbounded
	walkBound(p.Root, nil, func(n Physical, tuples, _ int) {
		if n == op {
			out = tuples
		}
	})
	return out
}

func findOp[T Physical](p *Plan) (op T, ok bool) {
	for n := p.Root; n != nil; n = n.Child() {
		if op, ok = n.(T); ok {
			return op, true
		}
	}
	return op, false
}

// TestStopIsNoFetchLimitUnderReductiveJoin: a join that can drop rows
// (here: only visible categories) sits between the relation and the
// query's stop, so the first 5 entries are not the first 5 results and
// the stop must not cap the fetch — the schema's cardinality does, or
// the query is refused.
func TestStopIsNoFetchLimitUnderReductiveJoin(t *testing.T) {
	const streamSQL = `
		SELECT thoughts.* FROM subs s JOIN thoughts JOIN cats c
		WHERE thoughts.owner = s.target AND s.owner = [1: me]
		  AND c.cid = thoughts.cid AND c.visible = true
		ORDER BY thoughts.ts DESC LIMIT 5`
	const scanSQL = `
		SELECT t.* FROM thoughts t JOIN cats c
		WHERE t.owner = [1: me] AND c.cid = t.cid AND c.visible = true
		ORDER BY t.ts DESC LIMIT 5`

	// Sorted join, no cardinality on thoughts: nothing bounds the fetch.
	nsi := compileErr(t, stopCatalog(t, ""), streamSQL)
	if !strings.Contains(nsi.Segment, "thoughts") || len(nsi.Suggestions) == 0 ||
		!strings.Contains(nsi.Suggestions[0], "CARDINALITY LIMIT n (owner)") {
		t.Errorf("refusal should point at thoughts and suggest its cardinality limit: %v", nsi)
	}

	// With one declared, the join fetches the cardinality, emits every
	// match, and the sort runs above the filtering join.
	bounded := stopCatalog(t, ", CARDINALITY LIMIT 50 (owner)")
	plan := compile(t, bounded, streamSQL)
	join, ok := findOp[*SortedIndexJoin](plan)
	if !ok || join.PerKeyLimit != 50 || join.Stop != 0 {
		t.Errorf("want the cardinality flavour (limitHint=50, no stop):\n%s", plan.Explain())
	}
	if _, ok := findOp[*LocalSort](plan); !ok {
		t.Errorf("cardinality-flavour join output needs a sort:\n%s", plan.Explain())
	}

	// Base scan: up to the cardinality, not the stop.
	plan = compile(t, bounded, scanSQL)
	scan, ok := findOp[*IndexScan](plan)
	if !ok || scan.LimitHint != 0 || tuplesOut(plan, scan) != 50 {
		t.Errorf("scan must fetch up to card(50), not the stop:\n%s", plan.Explain())
	}

	// Without the predicate on cats the join is a declared foreign key
	// that keeps every row: the stop is the fetch limit again.
	plan = compile(t, bounded, `
		SELECT t.* FROM thoughts t JOIN cats c
		WHERE t.owner = [1: me] AND c.cid = t.cid
		ORDER BY t.ts DESC LIMIT 5`)
	if scan, ok := findOp[*IndexScan](plan); !ok || scan.LimitHint != 5 {
		t.Errorf("non-reductive FK join should let the stop limit the scan:\n%s", plan.Explain())
	}
}

// TestSortedJoinStop: the join carries the query's stop exactly when
// nothing above it can drop or regroup rows; an operator above is then
// bounded by the page, not by every fetched entry.
func TestSortedJoinStop(t *testing.T) {
	cat := stopCatalog(t, ", CARDINALITY LIMIT 50 (owner)")
	cases := []struct {
		name, sql                   string
		stop, perKey, tuples, bound int
	}{
		{
			name: "join on top", stop: 5, perKey: 5, tuples: 5, bound: 1 + 10,
			sql: `SELECT thoughts.* FROM subs s JOIN thoughts
			      WHERE thoughts.owner = s.target AND s.owner = [1: me]
			      ORDER BY thoughts.ts DESC LIMIT 5`,
		},
		{
			// 1 scan + 10 ranges + 5 gets, not a get for each of the
			// 10 × 5 entries the join may fetch.
			name: "non-reductive FK join above", stop: 5, perKey: 5, tuples: 5, bound: 1 + 10 + 5,
			sql: `SELECT thoughts.*, u.* FROM subs s JOIN thoughts JOIN users u
			      WHERE thoughts.owner = s.target AND s.owner = [1: me] AND u.username = s.target
			      ORDER BY thoughts.ts DESC LIMIT 5`,
		},
		{
			name: "paginated", stop: 5, perKey: 5, tuples: 5, bound: 1 + 10,
			sql: `SELECT thoughts.* FROM subs s JOIN thoughts
			      WHERE thoughts.owner = s.target AND s.owner = [1: me]
			      ORDER BY thoughts.ts DESC PAGINATE 5`,
		},
		{
			// The stop applies to groups, not to joined rows: neither the
			// merge nor the per-stream fetch may stop at it, the schema's
			// cardinality bounds the fetch.
			name: "aggregate above", stop: 0, perKey: 50, tuples: 10 * 50, bound: 1 + 10,
			sql: `SELECT thoughts.ts, COUNT(*) FROM subs s JOIN thoughts
			      WHERE thoughts.owner = s.target AND s.owner = [1: me]
			      GROUP BY thoughts.ts ORDER BY thoughts.ts DESC LIMIT 5`,
		},
	}
	for _, tc := range cases {
		plan := compile(t, cat, tc.sql)
		join, ok := findOp[*SortedIndexJoin](plan)
		if !ok {
			t.Fatalf("%s: no SortedIndexJoin:\n%s", tc.name, plan.Explain())
		}
		if join.Stop != tc.stop || tuplesOut(plan, join) != tc.tuples || join.PerKeyLimit != tc.perKey {
			t.Errorf("%s: stop=%d tuples<=%d limitHint=%d, want %d, %d, %d", tc.name,
				join.Stop, tuplesOut(plan, join), join.PerKeyLimit, tc.stop, tc.tuples, tc.perKey)
		}
		if got := plan.OpBound(); got != tc.bound {
			t.Errorf("%s: OpBound = %d, want %d\n%s", tc.name, got, tc.bound, plan.Explain())
		}
		if shown := strings.Contains(join.Label(), "stop=5"); shown != (tc.stop > 0) {
			t.Errorf("%s: label %q", tc.name, join.Label())
		}
	}
}

// TestStopIsNoFetchLimitUnderAggregate: the stop above an aggregate
// counts groups, so the first stopK entries are not what the first stopK
// groups are made of. The stop caps no fetch below the aggregate — the
// schema's cardinality does, or the query is refused.
func TestStopIsNoFetchLimitUnderAggregate(t *testing.T) {
	const streamSQL = `
		SELECT thoughts.cid, COUNT(*) FROM subs s JOIN thoughts
		WHERE thoughts.owner = s.target AND s.owner = [1: me]
		GROUP BY thoughts.cid ORDER BY thoughts.cid LIMIT 2`
	const scanSQL = `
		SELECT cid, COUNT(*) FROM thoughts WHERE owner = [1: me]
		GROUP BY cid ORDER BY cid LIMIT 2`

	for _, sql := range []string{streamSQL, scanSQL} {
		nsi := compileErr(t, stopCatalog(t, ""), sql)
		if !strings.Contains(nsi.Segment, "thoughts") {
			t.Errorf("refusal should point at thoughts: %v", nsi)
		}
	}

	bounded := stopCatalog(t, ", CARDINALITY LIMIT 50 (owner)")
	plan := compile(t, bounded, streamSQL)
	if join, ok := findOp[*SortedIndexJoin](plan); !ok || join.PerKeyLimit != 50 || join.Stop != 0 {
		t.Errorf("want the cardinality flavour (limitHint=50, no stop):\n%s", plan.Explain())
	}
	plan = compile(t, bounded, scanSQL)
	if scan, ok := findOp[*IndexScan](plan); !ok || scan.LimitHint != 0 || tuplesOut(plan, scan) != 50 {
		t.Errorf("scan must fetch up to card(50), not the stop:\n%s", plan.Explain())
	}
}

// TestPlanPager: a paginated plan has exactly one pager — the topmost
// sorted join, else the base scan, whether or not the scan fetches past
// the page — and a plan that does not paginate has none.
func TestPlanPager(t *testing.T) {
	cat := stopCatalog(t, ", CARDINALITY LIMIT 50 (owner)")
	const filtered = `SELECT t.* FROM thoughts t JOIN cats c
		WHERE t.owner = [1: me] AND c.cid = t.cid AND c.visible = true ORDER BY t.ts DESC`
	const stream = `SELECT thoughts.* FROM subs s JOIN thoughts
		WHERE thoughts.owner = s.target AND s.owner = [1: me]`
	for _, tc := range []struct {
		name, sql, want string // want: the start of the pager's label
	}{
		{"filtering join above the scan", filtered + " PAGINATE 5", "IndexScan(thoughts"},
		{"the same with LIMIT", filtered + " LIMIT 5", ""},
		{"residual on the scan", `SELECT * FROM thoughts WHERE owner = [1: me] AND cid = 1 PAGINATE 5`, "IndexScan(thoughts"},
		{"fetch pinned to the page", `SELECT * FROM thoughts WHERE owner = [1: me] ORDER BY ts DESC PAGINATE 5`, "IndexScan(thoughts"},
		{"sort+stop sorted join", stream + ` ORDER BY thoughts.ts DESC PAGINATE 5`, "SortedIndexJoin(thoughts"},
		{"the same with LIMIT", stream + ` ORDER BY thoughts.ts DESC LIMIT 5`, ""},
		{"cardinality sorted join under a filtering join", `SELECT thoughts.* FROM subs s JOIN thoughts JOIN cats c
			WHERE thoughts.owner = s.target AND s.owner = [1: me] AND c.cid = thoughts.cid AND c.visible = true PAGINATE 5`, "SortedIndexJoin(thoughts"},
	} {
		plan := compile(t, cat, tc.sql)
		got := ""
		if plan.Pager != nil {
			got = plan.Pager.Label()
		}
		if !strings.HasPrefix(got, tc.want) || (tc.want == "") != (plan.Pager == nil) {
			t.Errorf("%s: pager %q, want %q\n%s", tc.name, got, tc.want, plan.Explain())
		}
		if named := strings.Contains(plan.Explain(), "-- cursor: a position in "+got); named != (plan.Pager != nil) {
			t.Errorf("%s: Explain names the pager: %v\n%s", tc.name, named, plan.Explain())
		}
	}
}

// TestPaginateRefusedWithoutPager: a cursor is a position in one
// operator's key order. Where a sort or an aggregate rearranges the rows
// on their way to the stop, or the base is a primary-key lookup with no
// sorted join above it, no operator has such a position and PAGINATE is
// refused — typed and with a way out — while the same query with LIMIT
// compiles. (That a refused Prepare leaves no index behind is the
// engine's promise: TestPaginatedSortedJoinWithResidual there.)
func TestPaginateRefusedWithoutPager(t *testing.T) {
	for _, tc := range []struct {
		name, sql, segment, suggestion string
	}{
		{"sort over a scan with a residual", `SELECT * FROM thoughts WHERE owner = [1: me] AND cid = 1 ORDER BY ts DESC`,
			"LocalSort(", "relation read by IndexScan(thoughts("},
		{"sort on a column of the joined table", `SELECT s.target FROM subs s JOIN users u
			WHERE s.owner = [1: me] AND u.username = s.target ORDER BY u.username DESC`,
			"LocalSort(", "relation read by IndexScan(subs("},
		{"sort over a cardinality-flavour sorted join", `SELECT thoughts.* FROM subs s JOIN thoughts JOIN cats c
			WHERE thoughts.owner = s.target AND s.owner = [1: me] AND c.cid = thoughts.cid AND c.visible = true
			ORDER BY thoughts.ts DESC`, "LocalSort(", "relation read by SortedIndexJoin(thoughts("},
		{"aggregate", `SELECT cid, COUNT(*) FROM thoughts WHERE owner = [1: me] GROUP BY cid`, "LocalAgg(", "use LIMIT"},
		{"IN list of primary keys", `SELECT * FROM users WHERE username IN ('a', 'b', 'c')`, "PKLookup(", "use LIMIT"},
	} {
		cat := stopCatalog(t, ", CARDINALITY LIMIT 50 (owner)")
		nsi := compileErr(t, cat, tc.sql+" PAGINATE 2")
		if !strings.HasPrefix(nsi.Segment, tc.segment) || !strings.Contains(nsi.Reason, "PAGINATE") {
			t.Errorf("%s: refused for %q (%s)", tc.name, nsi.Reason, nsi.Segment)
		}
		if len(nsi.Suggestions) == 0 || !strings.Contains(strings.Join(nsi.Suggestions, "\n"), tc.suggestion) {
			t.Errorf("%s: suggestions %q, want one with %q", tc.name, nsi.Suggestions, tc.suggestion)
		}
		compile(t, cat, tc.sql+" LIMIT 2")
	}
}

// TestStopLimitsFetchPairsForeignKeyByPosition: FOREIGN KEY (x, y)
// REFERENCES p joins x to p's first primary-key column and y to its
// second. Only that pairing finds a row of p for every row of c; the
// stop may then cap c's scan. Any other pairing of the same columns can
// drop rows, and a capped scan would return a short page.
func TestStopLimitsFetchPairsForeignKeyByPosition(t *testing.T) {
	cat := schema.NewCatalog()
	for _, ddl := range []string{
		`CREATE TABLE p (a INT, b INT, name VARCHAR(10), PRIMARY KEY (a, b))`,
		`CREATE TABLE c (owner VARCHAR(20), ts INT, x INT, y INT, PRIMARY KEY (owner, ts),
			FOREIGN KEY (x, y) REFERENCES p)`,
	} {
		stmt, err := parser.Parse(ddl)
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddTable(stmt.(*parser.CreateTable).Table); err != nil {
			t.Fatal(err)
		}
	}
	const query = `SELECT c.ts, p.name FROM c JOIN p WHERE c.owner = [1: me] AND %s ORDER BY c.ts DESC LIMIT 5`
	limited := func(join string) bool {
		t.Helper()
		stmt, err := parser.Parse(fmt.Sprintf(query, join))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Compile(cat, stmt.(*parser.Select))
		if err != nil {
			return false // refused: nothing else bounds c's scan
		}
		scan, ok := findOp[*IndexScan](plan)
		return ok && scan.LimitHint == 5
	}
	if !limited(`p.a = c.x AND p.b = c.y`) {
		t.Error("the declared pairing should let the stop limit c's scan")
	}
	for _, join := range []string{`p.a = c.y AND p.b = c.x`, `p.a = c.x AND p.b = c.x`, `p.a = c.x AND p.b = c.y AND p.name = c.owner`} {
		if limited(join) {
			t.Errorf("%s is not the foreign key, yet the stop limits c's scan", join)
		}
	}
}

// TestPKLookupKeyOrder: IN lists on two primary-key columns multiply out
// earlier column major.
func TestPKLookupKeyOrder(t *testing.T) {
	plan := compile(t, scadrCatalog(t), `SELECT * FROM subscriptions WHERE owner IN ('a', 'b') AND target IN ('x', 'y')`)
	lookup, ok := findOp[*PKLookup](plan)
	if !ok {
		t.Fatalf("want a PKLookup:\n%s", plan.Explain())
	}
	var got []string
	for _, k := range lookup.Keys {
		got = append(got, fmt.Sprintf("(%s,%s)", k[0], k[1]))
	}
	if want := `("a","x") ("a","y") ("b","x") ("b","y")`; strings.Join(got, " ") != want {
		t.Errorf("keys %v, want %s", got, want)
	}
}

// TestLimitHintScanSections: a limit-hint scan reads one index section.
// Inequalities on a second column cannot narrow it, so the scan is
// refused; two bounds on one side merge into the tighter, the exclusive
// one at equal values; and a word index on a primary-key column still
// ends with the column itself, which keeps its entries unique.
func TestLimitHintScanSections(t *testing.T) {
	cat := scadrCatalog(t)
	compileErr(t, cat, `SELECT * FROM thoughts WHERE owner = [1: u] AND timestamp > 3 AND text < 'x' ORDER BY timestamp LIMIT 5`)

	for _, where := range []string{
		`timestamp >= 3 AND timestamp > 3 AND timestamp <= 9 AND timestamp < 9`,
		`timestamp > 3 AND timestamp >= 3 AND timestamp < 9 AND timestamp <= 9`,
	} {
		plan := compile(t, cat, `SELECT * FROM thoughts WHERE owner = [1: u] AND `+where+` ORDER BY timestamp LIMIT 5`)
		scan, ok := findOp[*IndexScan](plan)
		if !ok || scan.Lower == nil || scan.Upper == nil || scan.Lower.Inclusive || scan.Upper.Inclusive {
			t.Errorf("%s: want both bounds exclusive:\n%s", where, plan.Explain())
		}
	}

	plan := compile(t, cat, `SELECT * FROM users WHERE username CONTAINS 'ann' LIMIT 5`)
	scan, ok := findOp[*IndexScan](plan)
	want := []schema.IndexField{{Column: "username", Token: true}, {Column: "username"}}
	if !ok || !slices.Equal(scan.Index.Fields, want) {
		t.Errorf("want an index on %v:\n%s", want, plan.Explain())
	}
}
