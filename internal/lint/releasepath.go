package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ReleasePath is the critical-section rule. An acquire is a
// sync.Mutex/RWMutex Lock or RLock, or a beginOp routing claim (a
// same-package call named beginOp, which pins a routing snapshot's
// refcount until endOp returns it). Each acquire is a statement of a
// block, and a later statement of that same block is either a defer of
// its release or the release itself; no return or goto, and no break
// or continue that leaves the block, comes between the two. A func
// literal's body is not between them (it runs later, or on its own
// goroutine), and neither is a break bound to a loop, switch or select
// nested there.
//
// The rule reads one block at a time and follows no call: a critical
// section is readable at its acquire, so a release in only some
// branches, in an inner block or in a later loop is a finding even
// when every path happens to balance. A lock-and-return helper, or a
// section spread over two loops, carries //lint:allow releasepath
// naming its contract. The release matches the acquire's receiver as
// written (Unlock for Lock, RUnlock for RLock); a claim's release is any
// same-package endOp call. TryLock is not an acquire: the spin loops it
// guards release where they succeed.
var ReleasePath = &Analyzer{
	Name: "releasepath",
	Doc:  "every acquire (mutex, claim) is released in its own block, with no exit in between",
	Run:  runReleasePath,
}

// section is one acquire: what it holds, for messages, and the call
// that releases it.
type section struct {
	what    string
	release string // the releasing function's name
	recv    string // the mutex as written; "" for a claim
}

func runReleasePath(pass *Pass) {
	for _, f := range pass.Files {
		// opened is every acquire in statement position, so the call
		// visit below can tell one buried in an expression.
		opened := map[*ast.CallExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			var list []ast.Stmt
			switch b := n.(type) {
			case *ast.BlockStmt:
				list = b.List
			case *ast.CaseClause:
				list = b.Body
			case *ast.CommClause:
				list = b.Body
			case *ast.CallExpr:
				if s, ok := acquireOf(pass, b); ok && !opened[b] {
					pass.Reportf(b.Pos(), "%s is acquired outside statement position; make the acquire a statement of its own block, so that block can release it", s.what)
				}
			}
			for i, st := range list {
				if call := stmtCall(st); call != nil {
					if s, ok := acquireOf(pass, call); ok {
						opened[call] = true
						checkSection(pass, s, st, list[i+1:])
					}
				}
			}
			return true
		})
	}
}

// acquireOf classifies a call: the section it opens, if any.
func acquireOf(pass *Pass, call *ast.CallExpr) (section, bool) {
	fn := calleeOf(pass.unit.Info, call)
	switch {
	case fn == nil:
	case isSyncMethod(fn) && (fn.Name() == "Lock" || fn.Name() == "RLock"):
		recv := types.ExprString(ast.Unparen(call.Fun).(*ast.SelectorExpr).X)
		return section{"mutex " + recv, strings.Replace(fn.Name(), "Lock", "Unlock", 1), recv}, true
	case fn.Pkg() == pass.unit.Pkg && fn.Name() == "beginOp":
		return section{"claim beginOp/endOp", "endOp", ""}, true
	}
	return section{}, false
}

// releases reports whether st releases s, directly or by defer.
func releases(pass *Pass, s section, st ast.Stmt) bool {
	call := stmtCall(st)
	if d, ok := st.(*ast.DeferStmt); ok {
		call = d.Call
	}
	if call == nil {
		return false
	}
	fn := calleeOf(pass.unit.Info, call)
	switch {
	case fn == nil || fn.Name() != s.release:
		return false
	case s.recv == "":
		return fn.Pkg() == pass.unit.Pkg
	}
	return isSyncMethod(fn) && types.ExprString(ast.Unparen(call.Fun).(*ast.SelectorExpr).X) == s.recv
}

// checkSection looks for s's release among rest, the statements after its
// acquire in the same block, and reports each exit that comes before
// it — or the acquire itself, when no statement of rest releases s.
func checkSection(pass *Pass, s section, acquire ast.Stmt, rest []ast.Stmt) {
	var between []ast.Stmt
	for _, st := range rest {
		if releases(pass, s, st) {
			for _, exit := range between {
				pass.Reportf(exit.Pos(), "%s is still held at this %s; release it before leaving its block, or defer the release right after the acquire", s.what, exitWord(exit))
			}
			return
		}
		between = append(between, exits(st)...)
	}
	pass.Reportf(acquire.Pos(), "%s is not released in its own block: follow the acquire with a defer of the release, or release it as a statement of the same block", s.what)
}

// isSyncMethod reports whether fn is a method of sync.Mutex/RWMutex,
// so that a Lock method of another type is not taken for an acquire.
func isSyncMethod(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	name := recvTypeName(fn)
	return name == "Mutex" || name == "RWMutex"
}

// stmtCall returns the call an expression or assignment statement
// makes (`mu.Lock()`, `rt := c.beginOp()`), or nil.
func stmtCall(st ast.Stmt) *ast.CallExpr {
	var e ast.Expr
	switch s := st.(type) {
	case *ast.ExprStmt:
		e = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			e = s.Rhs[0]
		}
	}
	call, _ := ast.Unparen(e).(*ast.CallExpr)
	return call
}

// exits returns the statements inside st that leave st's block: each
// return and goto, and each break or continue not bound to a loop,
// switch, select or label inside st. Func literals are not entered.
func exits(st ast.Stmt) []ast.Stmt {
	var out []ast.Stmt
	var stack []ast.Node
	ast.Inspect(st, func(n ast.Node) bool {
		switch s := n.(type) {
		case nil:
			stack = stack[:len(stack)-1]
			return true
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			out = append(out, s)
		case *ast.BranchStmt:
			if !boundIn(s, stack) {
				out = append(out, s)
			}
		}
		stack = append(stack, n)
		return true
	})
	return out
}

// boundIn reports whether the branch b targets a statement on stack,
// the statements enclosing it inside the scanned one. A fallthrough
// stays in its switch; a goto always counts as leaving.
func boundIn(b *ast.BranchStmt, stack []ast.Node) bool {
	if b.Tok == token.GOTO {
		return false
	}
	for _, n := range stack {
		switch s := n.(type) {
		case *ast.LabeledStmt:
			if b.Label != nil && s.Label.Name == b.Label.Name {
				return true
			}
		case *ast.ForStmt, *ast.RangeStmt:
			if b.Label == nil {
				return true
			}
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			if b.Label == nil && b.Tok == token.BREAK {
				return true
			}
		}
	}
	return b.Tok == token.FALLTHROUGH
}

// exitWord names an exit statement for a message.
func exitWord(st ast.Stmt) string {
	if b, ok := st.(*ast.BranchStmt); ok {
		return b.Tok.String()
	}
	return "return"
}
