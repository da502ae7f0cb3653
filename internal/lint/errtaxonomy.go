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
// Consumer rules run everywhere and are syntactic: an ==/!= between two
// non-nil error operands, an Error()-text match, or a type assertion to
// a concrete error type is a finding wherever it occurs. Errors arrive
// wrapped, so identity comparison silently misclassifies them as fatal,
// whatever call, function value or package the operand came from.
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
	pkg, info := pass.unit.Pkg, pass.unit.Info
	if pkg == nil || info == nil {
		return
	}
	if transient, declared := findTransientTypes(pass.Files, pkg, info); declared {
		runErrTaxonomyProducer(pass, transient)
	}
	runErrTaxonomyConsumer(pass)
}

// ---------------------------------------------------------------------
// Producer rules.

// findTransientTypes returns the package-local error types whose Unwrap
// method mentions ErrTransient (directly or via a wrapped field), and
// whether the package declares the sentinel itself.
func findTransientTypes(files []*ast.File, pkg *types.Package, info *types.Info) (map[string]bool, bool) {
	transient := map[string]bool{}
	declared := false
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						if name.Name == "ErrTransient" {
							declared = true
						}
					}
				}
			case *ast.FuncDecl:
				if d.Name.Name != "Unwrap" || d.Recv == nil || d.Body == nil {
					continue
				}
				mentions := false
				ast.Inspect(d.Body, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && id.Name == "ErrTransient" {
						mentions = true
					}
					// Unwrap returning a wrapped field (chain continues
					// through an inner error) also counts: the chain
					// reaches whatever was wrapped, which the producer
					// rule forces to be transient in turn.
					if ret, ok := n.(*ast.ReturnStmt); ok && len(ret.Results) == 1 {
						if sel, ok2 := ret.Results[0].(*ast.SelectorExpr); ok2 {
							if t := info.TypeOf(sel); t != nil && isErrorType(t) {
								mentions = true
							}
						}
					}
					return !mentions
				})
				if mentions {
					if obj, _ := info.Defs[d.Name].(*types.Func); obj != nil {
						if key := recvTypeName(obj); key != "" {
							transient["*"+pkg.Name()+"."+key] = true
						}
					}
				}
			}
		}
	}
	return transient, declared
}

func runErrTaxonomyProducer(pass *Pass, transientTypes map[string]bool) {
	pkg, info := pass.unit.Pkg, pass.unit.Info
	pkgName := pkg.Name()
	// Rule 1: every named error type unwraps to ErrTransient or is
	// allowlisted.
	scope := pkg.Scope()
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
		if transientTypes["*"+pkgName+"."+name] || transientTypes[pkgName+"."+name] {
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
					if i >= len(vs.Names) || !isUntypedErrConstruct(info, v) {
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
			if !ok || !isUntypedErrConstruct(info, call) {
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
func isUntypedErrConstruct(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeOf(info, call)
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

// fmtWrapsError reports whether a fmt.Errorf call's format string
// contains %w.
func fmtWrapsError(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	return ok && strings.Contains(lit.Value, "%w")
}

// ---------------------------------------------------------------------
// Consumer rules.

func runErrTaxonomyConsumer(pass *Pass) {
	for _, f := range pass.Files {
		inspectStack(f, func(n ast.Node, stack []ast.Node) {
			switch x := n.(type) {
			case *ast.BinaryExpr:
				checkErrCompare(pass, x)
			case *ast.CallExpr:
				checkErrStringMatch(pass, x, stack)
			case *ast.TypeAssertExpr:
				checkErrAssert(pass, x)
			}
		})
	}
}

// checkErrCompare flags `err == other` / `err != other` between two
// non-nil error operands, wherever the operands came from.
func checkErrCompare(pass *Pass, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	info := pass.unit.Info
	if !isErrorOperand(info.TypeOf(be.X)) || !isErrorOperand(info.TypeOf(be.Y)) {
		return
	}
	if isNilIdent(be.X) || isNilIdent(be.Y) {
		return
	}
	pass.Reportf(be.Pos(),
		"error compared with %s — wrapped errors never compare equal; classify with errors.Is(err, ErrTransient) or engine.Retryable",
		be.Op)
}

// checkErrStringMatch flags err.Error() used in a comparison or a
// strings.Contains-style match.
func checkErrStringMatch(pass *Pass, call *ast.CallExpr, stack []ast.Node) {
	info := pass.unit.Info
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" || len(call.Args) != 0 {
		return
	}
	if !isErrorOperand(info.TypeOf(sel.X)) {
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
			if fn := calleeOf(info, p); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "strings" && stringsMatchers[fn.Name()] {
				matched = true
			}
		}
	}
	if !matched {
		return
	}
	pass.Reportf(call.Pos(),
		"matching on err.Error() text; error identity lives in the wrap chain — classify with errors.Is/errors.As or engine.Retryable")
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
func checkErrAssert(pass *Pass, ta *ast.TypeAssertExpr) {
	if ta.Type == nil {
		return
	}
	info := pass.unit.Info
	if !isErrorOperand(info.TypeOf(ta.X)) {
		return
	}
	asserted := info.TypeOf(ta.Type)
	if asserted == nil || !isErrorType(asserted) {
		return
	}
	if _, isIface := asserted.Underlying().(*types.Interface); isIface {
		return // asserting to another interface is not taxonomy-relevant
	}
	pass.Reportf(ta.Pos(),
		"type assertion on an error; a wrapped %s never matches — use errors.As",
		types.TypeString(asserted, types.RelativeTo(pass.unit.Pkg)))
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorIface) || types.Identical(t, errorIface)
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
