package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ErrTaxonomy enforces the transient-error taxonomy the retry layer
// depends on (ROADMAP PR 7): every error a kvstore client/op path can
// produce either unwraps to kvstore.ErrTransient (so engine.Retryable
// retries it) or sits on the explicit fatal allowlist below (so the
// omission is a reviewed decision, not an accident) — and callers
// classify errors with errors.Is/errors.As/engine.Retryable, never by
// comparing wrapped errors with == or by matching on err.Error() text.
//
// Producer rules run only in packages that declare the ErrTransient
// sentinel (internal/kvstore today):
//
//   - a named error type must unwrap (transitively) to ErrTransient,
//     or be allowlisted;
//   - errors.New / fmt.Errorf without %w constructs an error invisible
//     to the taxonomy: allowed only for allowlisted functions and
//     package-level sentinels.
//
// Consumer rules run everywhere and are fact-powered: an operand of a
// ==/!= error comparison (or an Error()-text match) that traces to a
// call whose summary — local, or imported from a dependency's facts
// — says it may return a transient error is a bug: such errors
// arrive wrapped, so identity comparison silently misclassifies them
// as fatal.
var ErrTaxonomy = &Analyzer{
	Name: "errtaxonomy",
	Doc:  "client/op errors must unwrap to ErrTransient or be allowlisted fatal; classify with errors.Is, not == or string matching",
	Run:  runErrTaxonomy,
}

// ErrTaxonomyFatalAllow is the reviewed list of deliberately fatal
// error producers in sentinel-declaring packages, keyed by
// "<pkg>.<func>" for in-function constructions and "<pkg>.<var>" for
// package-level sentinels. Everything here is an invariant violation
// or corruption report where a retry would mask a bug; the README's
// "Static analysis" section documents each entry.
var ErrTaxonomyFatalAllow = map[string]bool{
	// Convergence-audit failures mean replicas diverged: retrying the
	// audit cannot help and must not hide it.
	"kvstore.AuditConvergence": true,
	// Envelope decode failures mean a corrupt version envelope: data
	// loss, not a transient condition.
	"kvstore.errEnvelopeShort": true,
	"kvstore.errEnvelopeFlags": true,
	// Fixture entries (internal/lint/testdata).
	"errtaxfix.fatalAudit": true,
}

func runErrTaxonomy(pass *Pass) {
	if pass.ip == nil {
		return
	}
	if pass.ip.hasTransientSentinel {
		runErrTaxonomyProducer(pass)
	}
	runErrTaxonomyConsumer(pass)
}

// ---------------------------------------------------------------------
// Producer rules.

func runErrTaxonomyProducer(pass *Pass) {
	ip := pass.ip
	pkgName := ip.pkg.Name()
	// Rule 1: every named error type unwraps to ErrTransient or is
	// allowlisted.
	scope := ip.pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		implements := isErrorType(named) || isErrorType(types.NewPointer(named))
		if !implements {
			continue
		}
		if ip.transientTypes["*"+pkgName+"."+name] || ip.transientTypes[pkgName+"."+name] {
			continue
		}
		if ErrTaxonomyFatalAllow[pkgName+"."+name] {
			continue
		}
		pass.Reportf(tn.Pos(),
			"error type %s does not unwrap to ErrTransient; add an Unwrap chaining to the sentinel, or allowlist it as deliberately fatal",
			name)
	}
	// Rules 2–3: untyped constructions.
	for _, f := range pass.Files {
		// Package-level `var errX = errors.New(...)` sentinels.
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, v := range vs.Values {
					if i >= len(vs.Names) || !isUntypedErrConstruct(ip, v) {
						continue
					}
					name := vs.Names[i].Name
					if name == "ErrTransient" || ErrTaxonomyFatalAllow[pkgName+"."+name] {
						continue
					}
					pass.Reportf(v.Pos(),
						"package-level error %s is opaque to the taxonomy (no Unwrap chain); make it a typed error or allowlist %s.%s as fatal",
						name, pkgName, name)
				}
			}
		}
		// In-function constructions.
		inspectStack(f, func(n ast.Node, stack []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isUntypedErrConstruct(ip, call) {
				return
			}
			fd := enclosingFunc(stack)
			if fd == nil {
				return // already handled as a package-level sentinel
			}
			if ErrTaxonomyFatalAllow[pkgName+"."+fd.Name.Name] {
				return
			}
			pass.Reportf(call.Pos(),
				"untyped error constructed on an op path: return a typed error unwrapping to ErrTransient, wrap a cause with %%w, or allowlist %s.%s as fatal",
				pkgName, fd.Name.Name)
		})
	}
}

// isUntypedErrConstruct reports whether e is errors.New(...) or a
// fmt.Errorf(...) whose format has no %w — the two constructions that
// produce an error with no Unwrap chain.
func isUntypedErrConstruct(ip *Interproc, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeOf(ip.info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch {
	case fn.Pkg().Path() == "errors" && fn.Name() == "New":
		return true
	case fn.Pkg().Path() == "fmt" && fn.Name() == "Errorf":
		return !fmtWrapsError(call)
	}
	return false
}

// ---------------------------------------------------------------------
// Consumer rules.

func runErrTaxonomyConsumer(pass *Pass) {
	for _, f := range pass.Files {
		inspectStack(f, func(n ast.Node, stack []ast.Node) {
			switch x := n.(type) {
			case *ast.BinaryExpr:
				checkErrCompare(pass, x, stack)
			case *ast.CallExpr:
				checkErrStringMatch(pass, x, stack)
			case *ast.TypeAssertExpr:
				checkErrAssert(pass, x, stack)
			}
		})
	}
}

// checkErrCompare flags `err == other` / `err != other` where either
// side traces to a call that may return a transient (wrapped) error.
func checkErrCompare(pass *Pass, be *ast.BinaryExpr, stack []ast.Node) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	ip := pass.ip
	tx, ty := ip.typeOf(be.X), ip.typeOf(be.Y)
	if !isErrorOperand(tx) || !isErrorOperand(ty) {
		return
	}
	if isNilIdent(be.X) || isNilIdent(be.Y) {
		return
	}
	fd := enclosingFunc(stack)
	for _, operand := range []ast.Expr{be.X, be.Y} {
		if src := traceTransient(ip, operand, fd, 0); src != "" {
			pass.Reportf(be.Pos(),
				"error compared with %s, but %s — wrapped transient errors never compare equal; classify with errors.Is(err, ErrTransient) or engine.Retryable",
				be.Op, src)
			return
		}
	}
}

// checkErrStringMatch flags err.Error() used in a comparison or a
// strings.Contains-style match.
func checkErrStringMatch(pass *Pass, call *ast.CallExpr, stack []ast.Node) {
	ip := pass.ip
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" || len(call.Args) != 0 {
		return
	}
	if !isErrorOperand(ip.typeOf(sel.X)) {
		return
	}
	// Interesting only when the text is being *matched*, not logged:
	// parent is a string comparison or a strings.* predicate call.
	if len(stack) == 0 {
		return
	}
	matched := false
	for i := len(stack) - 1; i >= 0 && i >= len(stack)-2; i-- {
		switch p := stack[i].(type) {
		case *ast.BinaryExpr:
			if p.Op == token.EQL || p.Op == token.NEQ {
				matched = true
			}
		case *ast.CallExpr:
			if fn := calleeOf(ip.info, p); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "strings" && stringsMatchers[fn.Name()] {
				matched = true
			}
		}
	}
	if !matched {
		return
	}
	msg := "matching on err.Error() text; error identity lives in the wrap chain — classify with errors.Is/errors.As or engine.Retryable"
	if src := traceTransient(ip, sel.X, enclosingFunc(stack), 0); src != "" {
		msg += " (" + src + ")"
	}
	pass.Reportf(call.Pos(), "%s", msg)
}

var stringsMatchers = map[string]bool{
	"Contains":  true,
	"HasPrefix": true,
	"HasSuffix": true,
	"EqualFold": true,
	"Index":     true,
}

// checkErrAssert flags `x.(T)` type assertions on errors (type
// switches are untouched: their assert has a nil Type).
func checkErrAssert(pass *Pass, ta *ast.TypeAssertExpr, stack []ast.Node) {
	if ta.Type == nil {
		return
	}
	ip := pass.ip
	if !isErrorOperand(ip.typeOf(ta.X)) {
		return
	}
	asserted := ip.typeOf(ta.Type)
	if asserted == nil || !isErrorType(asserted) {
		return
	}
	if _, isIface := asserted.Underlying().(*types.Interface); isIface {
		return // asserting to another interface is not taxonomy-relevant
	}
	pass.Reportf(ta.Pos(),
		"type assertion on an error; a wrapped %s never matches — use errors.As",
		types.TypeString(asserted, types.RelativeTo(ip.pkg)))
}

// isErrorOperand reports whether t is the error interface itself (the
// static type a comparison operand would have).
func isErrorOperand(t types.Type) bool {
	if t == nil {
		return false
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return types.Identical(iface, errorIface) || iface.NumMethods() == 1 && iface.Method(0).Name() == "Error"
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// traceTransient reports, as a human-readable provenance string, a
// call whose summary says it may return a transient error and whose
// result flows into e; "" if none is found. The trace follows direct
// calls and local-variable assignments within the enclosing function.
func traceTransient(ip *Interproc, e ast.Expr, fd *ast.FuncDecl, depth int) string {
	if depth > 3 {
		return ""
	}
	switch v := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		return calleeTransientFact(ip, v)
	case *ast.Ident:
		if fd == nil || fd.Body == nil {
			return ""
		}
		obj := ip.info.ObjectOf(v)
		if obj == nil || obj.Pkg() == nil || obj.Parent() == obj.Pkg().Scope() {
			return "" // package-level sentinel, not a traced result
		}
		found := ""
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if found != "" {
				return false
			}
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok2 := lhs.(*ast.Ident)
				if !ok2 || id.Name != v.Name {
					continue
				}
				var rhs ast.Expr
				if len(as.Rhs) == len(as.Lhs) {
					rhs = as.Rhs[i]
				} else if len(as.Rhs) == 1 {
					rhs = as.Rhs[0]
				}
				if rhs != nil {
					if src := traceTransient(ip, rhs, fd, depth+1); src != "" {
						found = src
					}
				}
			}
			return true
		})
		return found
	}
	return ""
}

// calleeTransientFact renders the provenance of a transient-returning
// callee, naming the exporting package when the summary crossed a
// package boundary.
func calleeTransientFact(ip *Interproc, call *ast.CallExpr) string {
	fn := calleeOf(ip.info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	fact, ok := ip.calleeFact(fn)
	if !ok || !fact.Transient {
		return ""
	}
	kinds := "a transient error"
	if len(fact.ErrTypes) > 0 {
		kinds = strings.Join(fact.ErrTypes, ", ")
	}
	if fn.Pkg() == ip.pkg {
		return calleeDisplay(fn) + " may return " + kinds + " (this package's summary)"
	}
	return calleeDisplay(fn) + " may return " + kinds +
		" (per fact from " + fn.Pkg().Path() + ")"
}
