package lint

import "go/ast"

// The dataflow core: a branch-sensitive statement walker (flowWalker)
// over a lowered view of a function body. "Lowered" here means control
// flow is normalized to a handful of join shapes — if/else
// clone+union, two-pass loop bodies with a back-edge union,
// switch/select clause merges with default-totality, and a single exit
// enumeration (every return plus the implicit fall-through at the
// closing brace) — rather than a full basic-block CFG. It carries the
// held-lock walk of heldlocks.go, which releasepath reads.

// flowWalker drives the held-lock walk (heldlocks.go) through one
// function body: the walker owns all control flow, its leafStmt and
// expr methods there own statement and expression semantics. Branches
// clone the held set, joins union it (a lock is may-held after a join
// if either arm held it).
type flowWalker struct {
	*heldWalk
	fi *funcInfo
}

// stmt walks one statement, mutating fs, and reports whether control
// cannot fall through (return / branch).
func (w *flowWalker) stmt(st ast.Stmt, fs *held) bool {
	switch s := st.(type) {
	case nil:
		return false
	case *ast.BlockStmt:
		for _, inner := range s.List {
			if w.stmt(inner, fs) {
				return true
			}
		}
		return false
	case *ast.IfStmt:
		w.stmt(s.Init, fs)
		w.expr(s.Cond, fs)
		thenSt := fs.clone()
		thenTerm := w.stmt(s.Body, thenSt)
		elseSt := fs.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = w.stmt(s.Else, elseSt)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			*fs = *elseSt
		case elseTerm:
			*fs = *thenSt
		default:
			*fs = *unionHeld(thenSt, elseSt)
		}
	case *ast.ForStmt:
		w.stmt(s.Init, fs)
		w.expr(s.Cond, fs)
		// Two passes over the body: the second starts from the union of
		// entry and first-iteration exit, so an obligation still open
		// across the back edge is seen by iteration-two statements.
		body := fs.clone()
		w.stmt(s.Body, body)
		w.stmt(s.Post, body)
		again := unionHeld(fs, body)
		w.stmt(s.Body, again)
		w.stmt(s.Post, again)
		*fs = *unionHeld(fs, again)
	case *ast.RangeStmt:
		w.expr(s.X, fs)
		body := fs.clone()
		w.stmt(s.Body, body)
		again := unionHeld(fs, body)
		w.stmt(s.Body, again)
		*fs = *unionHeld(fs, again)
	case *ast.SwitchStmt:
		w.stmt(s.Init, fs)
		w.expr(s.Tag, fs)
		w.cases(s.Body, fs)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, fs)
		w.stmt(s.Assign, fs)
		w.cases(s.Body, fs)
	case *ast.SelectStmt:
		w.cases(s.Body, fs)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, fs)
		}
		w.recordExit(s.Pos(), fs)
		return true
	case *ast.BranchStmt:
		// break/continue/goto: stops fall-through here; the loop's
		// union pass accounts for the continuation.
		return true
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, fs)
	default:
		w.leafStmt(st, fs)
	}
	return false
}

// cases merges switch/select clause bodies: each clause starts from
// the pre-state; the post-state is the union of every clause exit that
// falls through, plus the pre-state unless a default clause makes the
// dispatch total.
func (w *flowWalker) cases(body *ast.BlockStmt, fs *held) {
	var out *held
	hasDefault := false
	merge := func(x *held) {
		if out == nil {
			out = x
		} else {
			out = unionHeld(out, x)
		}
	}
	for _, c := range body.List {
		clauseSt := fs.clone()
		term := false
		switch cc := c.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			for _, e := range cc.List {
				w.expr(e, clauseSt)
			}
			for _, st := range cc.Body {
				if term = w.stmt(st, clauseSt); term {
					break
				}
			}
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
			}
			w.stmt(cc.Comm, clauseSt)
			for _, st := range cc.Body {
				if term = w.stmt(st, clauseSt); term {
					break
				}
			}
		}
		if !term {
			merge(clauseSt)
		}
	}
	if !hasDefault {
		merge(fs.clone())
	}
	if out != nil {
		*fs = *out
	}
}
