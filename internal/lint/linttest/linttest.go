// Package linttest runs lint analyzers over testdata packages and
// checks their diagnostics against expectations written in the source,
// in the style of go/analysis/analysistest:
//
//	c.routing.Load() // want `raw routing.Load`
//
// A `// want` comment expects exactly one diagnostic on its line whose
// message matches the backquoted or quoted regexp; any diagnostic on a
// line without one, or an expectation that nothing matches, fails the
// test. The marker may trail other comment text, so a //lint:allow
// directive can carry a want for the stale-directive diagnostic
// reported at its own position.
//
// Fixture packages are fully typechecked by the same lint.Loader
// cmd/piql-vet uses (so they may import piql/... packages), which is
// what lets the typed analyzers run against them exactly as they run
// over the tree.
package linttest

import (
	"regexp"
	"strconv"
	"sync"
	"testing"

	"piql/internal/lint"
)

var wantRe = regexp.MustCompile("// want (`[^`]*`|\"[^\"]*\")\\s*$")

// expectation is one `// want` comment.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// loader is shared across tests in the process so the standard library
// is typechecked from source once, not once per fixture.
var (
	loaderOnce sync.Once
	loader     *lint.Loader
	loaderErr  error
)

// Run applies one analyzer to the fixture package in dir.
func Run(t *testing.T, dir string, a *lint.Analyzer) {
	t.Helper()
	RunAnalyzers(t, dir, []*lint.Analyzer{a})
}

// RunAnalyzers typechecks the fixture package in dir, runs the
// analyzers over it, and compares diagnostics (including stale
// //lint:allow reports) to `// want` comments.
func RunAnalyzers(t *testing.T, dir string, analyzers []*lint.Analyzer) {
	t.Helper()
	for _, a := range analyzers {
		if a == nil {
			t.Fatal("linttest: nil analyzer (was its registration deleted?)")
		}
	}
	loaderOnce.Do(func() {
		loader, loaderErr = lint.NewLoader(dir)
	})
	if loaderErr != nil {
		t.Fatalf("linttest: %v", loaderErr)
	}
	lp, err := loader.LoadDir(dir, "piql/internal/lint/"+dir)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}

	var expects []*expectation
	fset := loader.Fset()
	for _, f := range lp.Unit.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				lit := m[1]
				var pat string
				if lit[0] == '`' {
					pat = lit[1 : len(lit)-1]
				} else if unq, err := strconv.Unquote(lit); err == nil {
					pat = unq
				} else {
					t.Fatalf("linttest: %s: bad want literal %s", fset.Position(c.Pos()), lit)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("linttest: %s: bad want pattern: %v", fset.Position(c.Pos()), err)
				}
				p := fset.Position(c.Pos())
				expects = append(expects, &expectation{file: p.Filename, line: p.Line, pattern: re})
			}
		}
	}

	for _, d := range lint.RunUnit(lp.Unit, analyzers) {
		found := false
		for _, ex := range expects {
			if !ex.matched && ex.file == d.Pos.Filename && ex.line == d.Pos.Line && ex.pattern.MatchString(d.Message) {
				ex.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, ex := range expects {
		if !ex.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", ex.file, ex.line, ex.pattern)
		}
	}
}
