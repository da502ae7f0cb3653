package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"piql/internal/lint"
)

const escapeFixtureSrc = `package fix

type T struct{ n int }

func Alloc() *T {
	t := &T{}
	return t
}

func (t *T) Grow(xs []int) []int {
	out := make([]int, 0, len(xs)+1)
	return append(out, xs...)
}

func stays(n int) int {
	v := n + 1
	return v
}
`

func parseEscapeFixture(t *testing.T) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", escapeFixtureSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

func TestParseEscapeDiagnostics(t *testing.T) {
	out := []byte(strings.Join([]string{
		"# piql/internal/codec",
		"fix.go:6:7: &T{} escapes to heap",
		"fix.go:11:13: make([]int, 0, len(xs) + 1) escapes to heap",
		"fix.go:12:9: moved to heap: out",
		`fix.go:12:15: "strings: illegal use of non-zero Builder copied by value" escapes to heap`,
		"fix.go:17:2: v does not escape",
		"fix.go:5:6: can inline Alloc",
		"fix.go:10:7: leaking param: xs",
		"garbage line with no colons",
		"",
	}, "\n"))
	raws := lint.ParseEscapeDiagnostics(out)
	if len(raws) != 3 {
		t.Fatalf("kept %d diagnostics, want 3 (heap escapes only): %+v", len(raws), raws)
	}
	if raws[0].File != "fix.go" || raws[0].Line != 6 || raws[0].Col != 7 || !strings.Contains(raws[0].What, "escapes to heap") {
		t.Fatalf("first diagnostic mangled: %+v", raws[0])
	}
	if !strings.Contains(raws[2].What, "moved to heap") {
		t.Fatalf("moved-to-heap not kept: %+v", raws[2])
	}
}

func TestAttributeEscapes(t *testing.T) {
	fset, files := parseEscapeFixture(t)
	raws := []lint.EscapeRaw{
		{File: "fix.go", Line: 6, Col: 7, What: "&T{} escapes to heap"},
		{File: "fix.go", Line: 11, Col: 13, What: "make escapes to heap"},
		{File: "fix.go", Line: 12, Col: 9, What: "moved to heap: out"},
		{File: "other.go", Line: 6, Col: 1, What: "foreign file escapes to heap"},
		{File: "fix.go", Line: 3, Col: 1, What: "outside any function escapes to heap"},
	}
	sites := lint.AttributeEscapes(fset, files, "piql/fix", raws)
	if got := len(sites["piql/fix.Alloc"]); got != 1 {
		t.Fatalf("Alloc attributed %d sites, want 1: %+v", got, sites)
	}
	if got := len(sites["piql/fix.(*T).Grow"]); got != 2 {
		t.Fatalf("(*T).Grow attributed %d sites, want 2: %+v", got, sites)
	}
	if len(sites) != 2 {
		t.Fatalf("foreign-file or out-of-function sites leaked in: %+v", sites)
	}
	grow := sites["piql/fix.(*T).Grow"]
	if grow[0].Pos.Line > grow[1].Pos.Line {
		t.Fatalf("sites not sorted by position: %+v", grow)
	}
}

func TestDeclaredFuncKeys(t *testing.T) {
	_, files := parseEscapeFixture(t)
	keys := lint.DeclaredFuncKeys(files)
	for _, want := range []string{"Alloc", "(*T).Grow", "stays"} {
		if !keys[want] {
			t.Fatalf("missing declared key %q in %v", want, keys)
		}
	}
}

func TestParseEscapeBudget(t *testing.T) {
	counts, order, err := lint.ParseEscapeBudget([]byte(
		"# comment\n\npiql/internal/codec.DecodeKey 3\npiql/internal/kvstore.(*Client).ReadBatch 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if counts["piql/internal/codec.DecodeKey"] != 3 || counts["piql/internal/kvstore.(*Client).ReadBatch"] != 0 {
		t.Fatalf("parsed counts wrong: %v", counts)
	}
	if len(order) != 2 || order[0] != "piql/internal/codec.DecodeKey" {
		t.Fatalf("entry order lost: %v", order)
	}
	// Round trip through the formatter.
	counts2, order2, err := lint.ParseEscapeBudget(lint.FormatEscapeBudget(counts, order))
	if err != nil || len(counts2) != len(counts) || order2[1] != order[1] {
		t.Fatalf("format round trip broke: %v %v %v", counts2, order2, err)
	}
	for _, bad := range []string{
		"piql/internal/codec.DecodeKey\n",            // missing count
		"piql/internal/codec.DecodeKey three\n",      // non-numeric
		"piql/internal/codec.DecodeKey -1\n",         // negative
		"piql/x.F 1\npiql/x.F 2\n",                   // duplicate
		"piql/internal/codec.DecodeKey 1 trailing\n", // extra field
	} {
		if _, _, err := lint.ParseEscapeBudget([]byte(bad)); err == nil {
			t.Fatalf("malformed budget %q parsed without error", bad)
		}
	}
}

func TestEscapeBudgetImportPath(t *testing.T) {
	for _, tc := range []struct{ entry, ip, key string }{
		{"piql/internal/codec.DecodeKey", "piql/internal/codec", "DecodeKey"},
		{"piql/internal/kvstore.(*Client).ReadBatch", "piql/internal/kvstore", "(*Client).ReadBatch"},
		{"piql.Top", "piql", "Top"},
	} {
		ip, key, ok := lint.EscapeBudgetImportPath(tc.entry)
		if !ok || ip != tc.ip || key != tc.key {
			t.Fatalf("split %q = %q, %q, %v; want %q, %q", tc.entry, ip, key, ok, tc.ip, tc.key)
		}
	}
	if _, _, ok := lint.EscapeBudgetImportPath("nodotanywhere"); ok {
		t.Fatal("entry without function key must not split")
	}
}

// TestEscapeBudgetAnalyzer drives the analyzer directly: over budget
// reports at the first excess site, at or under budget stays silent,
// and a unit with no escape info (the ordinary run) is skipped rather
// than run — so its //lint:allow directives are not audited as stale.
func TestEscapeBudgetAnalyzer(t *testing.T) {
	a := byName(t, "escapebudget")
	fset, files := parseEscapeFixture(t)
	raws := []lint.EscapeRaw{
		{File: "fix.go", Line: 6, Col: 7, What: "&T{} escapes to heap"},
		{File: "fix.go", Line: 11, Col: 13, What: "make escapes to heap"},
		{File: "fix.go", Line: 12, Col: 9, What: "moved to heap: out"},
	}
	sites := lint.AttributeEscapes(fset, files, "piql/fix", raws)
	unit := &lint.Unit{
		Fset:       fset,
		Files:      files,
		ImportPath: "piql/fix",
		Escapes: &lint.EscapeInfo{
			Budget: map[string]int{
				"piql/fix.Alloc":     1, // at budget: silent
				"piql/fix.(*T).Grow": 1, // one over: report
			},
			Sites: sites,
		},
	}
	diags := lint.RunUnit(unit, []*lint.Analyzer{a})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if !strings.Contains(d.Message, "piql/fix.(*T).Grow") ||
		!strings.Contains(d.Message, "has 2 heap escapes, over its budget of 1") {
		t.Fatalf("diagnostic does not cite function and budget: %s", d.Message)
	}
	if d.Pos.Line != 12 {
		t.Fatalf("report at line %d, want the first over-budget site (12)", d.Pos.Line)
	}

	// No escape info → skipped entirely, no diagnostics.
	plain := &lint.Unit{Fset: fset, Files: files, ImportPath: "piql/fix"}
	if diags := lint.RunUnit(plain, []*lint.Analyzer{a}); len(diags) != 0 {
		t.Fatalf("skipped unit still produced diagnostics: %v", diags)
	}
}
