// Package lint is a small static-analysis framework plus the project's
// concurrency-invariant analyzers. It plays the role of
// golang.org/x/tools/go/analysis for this repository — built on the
// standard library's go/ast, go/token, and go/types only, because the
// build must not fetch modules. There is one way in: a Loader
// typechecks packages from source and RunUnit analyzes one package at
// a time, with nothing carried from one package to the next;
// cmd/piql-vet does that for every package of the module, linttest for
// one fixture package.
//
// The analyzers enforce structural invariants of the concurrent
// engine/kvstore code that the type system cannot express: how routing
// snapshots are claimed, that simulated processes never wait on the
// real clock, that lease tables are swapped whole, that every
// goroutine's lifetime is argued for at its spawn, and, block by block,
// that every acquire is released in its own block with no exit before
// the release. Each analyzer documents its invariant on its Analyzer
// value. What a lock held across a park or two locks taken in opposite
// orders would do — wedge a run — the simulated tests show directly, and
// so do the error-chain tests for an op error the retry layer would take
// for fatal, and the allocation pins for a heap escape on a hot path:
// their mutants are gated by tests (cmd/piql-vet/testdata/mutants.ledger).
//
// A site that violates the letter of a rule for a documented reason is
// suppressed with a directive comment naming the analyzer:
//
//	//lint:allow routingclaim — control-plane read under c.mu
//
// The directive is honored when it appears on the diagnostic's line,
// on the line above it, or in the doc comment of the enclosing
// function. Suppression is part of the framework, not the individual
// analyzers, so every rule gets it uniformly — and so is staleness: a
// directive that suppresses nothing (for an analyzer that actually
// ran) is itself reported, so justified allows cannot rot after the
// code they excused is refactored away.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass is one analyzer's view of one package: parsed files (comments
// included) sharing a FileSet, plus the unit's type information. The
// syntactic analyzers ignore the typed side; releasepath reads it.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File

	unit *Unit

	diags []Diagnostic
}

// Unit is one analysis unit: a package's parsed and typechecked files.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Analyzer: p.Analyzer.Name, Pos: p.Fset.Position(pos), Message: fmt.Sprintf(format, args...)})
}

// Analyzers is the registry cmd/piql-vet and the tests run: four
// syntactic invariants (routingclaim, simclock, leaseswap, goroleak)
// and the typed releasepath.
var Analyzers = []*Analyzer{
	RoutingClaim,
	SimClock,
	LeaseSwap,
	GoroLeak,
	ReleasePath,
}

// ByName returns the registered analyzer with the given name, or nil.
// Tests fetch analyzers through it so that deleting a registration
// fails the analyzer's fixture suite.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// StaleAllowName is the analyzer name stale //lint:allow diagnostics
// are reported under. Staleness is a framework property (it needs the
// post-suppression view across every analyzer in the run), so there is
// no Analyzer value to register; the name exists for output grouping
// and cannot itself be suppressed — a directive cannot justify its own
// existence.
const StaleAllowName = "staleallow"

// RunUnit applies every analyzer to the unit and returns the surviving
// diagnostics sorted by position. Files named *_test.go are skipped —
// the invariants govern production code; tests deliberately poke at
// internals (raw routing loads to assert convergence, wall-clock
// sleeps around immediate-mode clusters).
func RunUnit(u *Unit, analyzers []*Analyzer) []Diagnostic {
	var kept []*ast.File
	for _, f := range u.Files {
		if strings.HasSuffix(u.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		kept = append(kept, f)
	}
	directives := collectDirectives(u.Fset, kept)
	var out []Diagnostic
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
		pass := &Pass{
			Analyzer: a,
			Fset:     u.Fset,
			Files:    kept,
			unit:     u,
		}
		a.Run(pass)
		for _, d := range pass.diags {
			if !directives.allow(a.Name, d.Pos) {
				out = append(out, d)
			}
		}
	}
	// Staleness: a directive for an analyzer that ran but suppressed
	// nothing is dead weight — or worse, a stale justification for a
	// violation that no longer exists. Directives naming analyzers
	// outside this run set are left alone (single-analyzer test runs
	// must not flag their neighbors' allows).
	for _, dir := range directives.list {
		if ran[dir.name] && !dir.used {
			out = append(out, Diagnostic{
				Analyzer: StaleAllowName,
				Pos:      dir.pos,
				Message: fmt.Sprintf(
					"//lint:allow %s suppresses no diagnostic; remove the directive or restore its justification",
					dir.name),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// allowRe matches a suppression directive; everything after the
// analyzer name (an em-dash justification, usually) is ignored.
var allowRe = regexp.MustCompile(`^//lint:allow\s+([a-z]+)`)

// directive is one //lint:allow comment: where it is, which analyzer
// it names, the function span it covers when it sits in a doc comment,
// and whether it suppressed anything this run.
type directive struct {
	name string
	pos  token.Position
	// span is the [start, end] line range the directive covers when it
	// appears in a function's doc comment; zero otherwise.
	span [2]int
	used bool
}

// directiveSet is every directive in the unit, in source order.
type directiveSet struct {
	list []*directive
	// byFile indexes directives by filename for the per-diagnostic
	// lookup.
	byFile map[string][]*directive
}

// allow reports whether a diagnostic by the named analyzer at pos is
// suppressed, marking the winning directive used.
func (s *directiveSet) allow(name string, pos token.Position) bool {
	ok := false
	for _, d := range s.byFile[pos.Filename] {
		if d.name != name {
			continue
		}
		if d.pos.Line == pos.Line || d.pos.Line == pos.Line-1 ||
			(d.span[1] > 0 && pos.Line >= d.span[0] && pos.Line <= d.span[1]) {
			d.used = true
			ok = true
			// Keep scanning: a line directive and a doc-comment
			// directive can both cover pos; both are then live.
		}
	}
	return ok
}

func collectDirectives(fset *token.FileSet, files []*ast.File) *directiveSet {
	s := &directiveSet{byFile: map[string][]*directive{}}
	// index finds the directive already recorded at a position (doc
	// comments appear both in File.Comments and in FuncDecl.Doc).
	index := map[string]*directive{}
	add := func(name string, pos token.Position) *directive {
		key := fmt.Sprintf("%s:%d:%d", pos.Filename, pos.Line, pos.Column)
		if d, ok := index[key]; ok {
			return d
		}
		d := &directive{name: name, pos: pos}
		index[key] = d
		s.list = append(s.list, d)
		s.byFile[pos.Filename] = append(s.byFile[pos.Filename], d)
		return d
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if m := allowRe.FindStringSubmatch(c.Text); m != nil {
					add(m[1], fset.Position(c.Pos()))
				}
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if m := allowRe.FindStringSubmatch(c.Text); m != nil {
					d := add(m[1], fset.Position(c.Pos()))
					d.span = [2]int{
						fset.Position(fd.Pos()).Line,
						fset.Position(fd.End()).Line,
					}
				}
			}
		}
	}
	return s
}

// inspectStack walks the file calling fn with each node and the stack
// of its ancestors (outermost first, not including n itself).
func inspectStack(f *ast.File, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// enclosingFunc returns the innermost enclosing named function
// declaration on the stack, or nil (closures return their outermost
// named host).
func enclosingFunc(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

// isSelectorCall reports whether n is a call of the form
// <expr>.<field>.<method>(...), e.g. c.routing.Load().
func isSelectorCall(n ast.Node, field, method string) (*ast.CallExpr, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return nil, false
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok || inner.Sel.Name != field {
		return nil, false
	}
	return call, true
}

// containsSelectorCall reports whether the expression tree rooted at e
// contains a <...>.<field>.<method>(...) call.
func containsSelectorCall(e ast.Expr, field, method string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := isSelectorCall(n, field, method); ok {
			found = true
			return false
		}
		return !found
	})
	return found
}

// resolveIdent finds the expression most recently assigned to name
// before pos within fn's body (a deliberately simple single-block
// approximation: the lexically last `name := rhs` or `name = rhs`
// above pos). Returns nil if name is not a locally assigned ident.
func resolveIdent(fn *ast.FuncDecl, name string, pos token.Pos) ast.Expr {
	if fn == nil || fn.Body == nil {
		return nil
	}
	var rhs ast.Expr
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Pos() >= pos {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name != name {
				continue
			}
			if len(as.Rhs) == len(as.Lhs) {
				rhs = as.Rhs[i]
			} else if len(as.Rhs) == 1 {
				rhs = as.Rhs[0]
			}
		}
		return true
	})
	return rhs
}

// recvTypeName returns the bare receiver type name of a method object.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, okp := t.(*types.Pointer); okp {
		t = p.Elem()
	}
	if n, okn := t.(*types.Named); okn {
		return n.Obj().Name()
	}
	return ""
}

// calleeOf resolves a call to its named function object, or nil for
// builtins, conversions, and calls through function values.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
