package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The dataflow core: the two pieces of machinery the flow analyzers
// share.
//
//  1. A branch-sensitive statement walker (flowWalker) over a lowered
//     view of a function body. "Lowered" here means control flow is
//     normalized to a handful of join shapes — if/else clone+union,
//     two-pass loop bodies with a back-edge union, switch/select
//     clause merges with default-totality, and a single exit
//     enumeration (every return plus the implicit fall-through at the
//     closing brace) — rather than a full basic-block CFG. It carries
//     the held-lock walk of interproc.go, which lockorder, holdblock,
//     releasepath and goroleak all read.
//
//  2. A value-provenance engine (taintFunc) for atomicmix and
//     snapshotescape: a client seeds tags on expressions that mint
//     tracked values (a routing snapshot from beginOp, the result of an
//     atomic Load) and the engine propagates them through locals, field
//     selections, container elements, range loops, and closures to a
//     fixpoint. Propagation is flow-insensitive within a function (a
//     local tainted on any path is tainted everywhere) and
//     field-granular: the client's derive hook decides whether a tag
//     survives a projection, which is where leaf types ([]byte key
//     bounds, counters) drop out. There is no alias analysis: taint
//     follows names and values, not the heap.

// ---------------------------------------------------------------------
// Branch-sensitive walker.

// flowWalker drives the held-lock walk (interproc.go) through one
// function body: the walker owns all control flow, its leafStmt /
// comm / *Obs methods there own statement and expression semantics.
// Branches clone the held set, joins union it (a lock is may-held after
// a join if either arm held it).
type flowWalker struct {
	ip *Interproc
	fi *funcInfo
}

func (w *flowWalker) expr(e ast.Expr, h *held) {
	if e != nil {
		w.ip.walkExpr(w.fi, e, h)
	}
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
		w.forObs(s)
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
		w.rangeObs(s, fs)
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
		w.selectObs(s, fs)
		w.cases(s.Body, fs)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, fs)
		}
		w.ip.recordReturn(w.fi, s)
		w.ip.recordExit(w.fi, s.Pos(), fs)
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
			if cc.Comm != nil {
				w.comm(cc.Comm, clauseSt)
			}
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

// ---------------------------------------------------------------------
// Loop/termination utilities shared by walker clients.

// loopExits reports whether a `for {` body has any way out: a return,
// a break that targets this loop, a goto or labeled break, or a call
// that never comes back (panic, runtime.Goexit, os.Exit, *.Fatal*).
func loopExits(body *ast.BlockStmt) bool {
	for _, st := range body.List {
		if stmtExitsLoop(st, true) {
			return true
		}
	}
	return false
}

// stmtExitsLoop scans one statement of a loop body. breakWorks is
// false inside constructs that capture a plain break (nested loops,
// switch/select) — a break there does not exit the outer loop.
func stmtExitsLoop(st ast.Stmt, breakWorks bool) bool {
	exits := func(list []ast.Stmt, bw bool) bool {
		for _, s := range list {
			if stmtExitsLoop(s, bw) {
				return true
			}
		}
		return false
	}
	switch s := st.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			return breakWorks || s.Label != nil
		case token.GOTO:
			return true
		}
		return false
	case *ast.BlockStmt:
		return exits(s.List, breakWorks)
	case *ast.IfStmt:
		if stmtExitsLoop(s.Body, breakWorks) {
			return true
		}
		return s.Else != nil && stmtExitsLoop(s.Else, breakWorks)
	case *ast.LabeledStmt:
		return stmtExitsLoop(s.Stmt, breakWorks)
	case *ast.ForStmt:
		return stmtExitsLoop(s.Body, false)
	case *ast.RangeStmt:
		return stmtExitsLoop(s.Body, false)
	case *ast.SwitchStmt:
		return exits(s.Body.List, breakWorks)
	case *ast.TypeSwitchStmt:
		return exits(s.Body.List, breakWorks)
	case *ast.SelectStmt:
		return exits(s.Body.List, breakWorks)
	case *ast.CaseClause:
		// A break directly inside a case breaks the switch/select, not
		// the loop.
		return exits(s.Body, false)
	case *ast.CommClause:
		return exits(s.Body, false)
	case *ast.ExprStmt:
		return callNeverReturns(s.X)
	}
	return false
}

// callNeverReturns recognizes calls that terminate the goroutine (or
// process) instead of returning: panic, runtime.Goexit, os.Exit, and
// the *.Fatal/Fatalf family.
func callNeverReturns(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Goexit", "Exit", "Fatal", "Fatalf", "Fatalln":
			return true
		}
	}
	return false
}

// commRecvChan returns the channel expression a select comm statement
// receives from, or nil when the comm is a send.
func commRecvChan(st ast.Stmt) ast.Expr {
	switch s := st.(type) {
	case *ast.ExprStmt:
		if u, ok := ast.Unparen(s.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			return u.X
		}
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if u, ok := ast.Unparen(s.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				return u.X
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Lvalue and return utilities shared by the provenance clients.

// sharedMemoryWrite reports whether an lvalue path can reach memory
// shared with other holders of the root: an explicit or implicit
// pointer dereference, or an element of a map or slice. A chain of
// direct field selections on struct values mutates only the local
// copy — `p := *x.Load(); p.f = v; x.Store(&p)` is the copy-on-write
// idiom working as intended, not a write through the published value.
func sharedMemoryWrite(info *types.Info, lhs ast.Expr) bool {
	typeOf := func(e ast.Expr) types.Type {
		if tv, ok := info.Types[e]; ok {
			return tv.Type
		}
		return nil
	}
	for {
		switch x := lhs.(type) {
		case *ast.ParenExpr:
			lhs = x.X
		case *ast.StarExpr:
			return true
		case *ast.SelectorExpr:
			// Selecting through a pointer dereferences it implicitly.
			if t := typeOf(x.X); t != nil {
				if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
					return true
				}
			}
			lhs = x.X
		case *ast.IndexExpr:
			if t := typeOf(x.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Map, *types.Slice, *types.Pointer:
					return true
				}
			}
			lhs = x.X // array value: the element write stays in the value
		case *ast.SliceExpr:
			return true
		default:
			return false // bare root reached through value projections only
		}
	}
}

// funcReturns calls fn for each return statement belonging to body
// itself, not descending into nested function literals (a closure's
// return is not the enclosing function's exit).
func funcReturns(body *ast.BlockStmt, fn func(*ast.ReturnStmt)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if r, ok := n.(*ast.ReturnStmt); ok {
			fn(r)
		}
		return true
	})
}

// ---------------------------------------------------------------------
// Value provenance.

// provTag is one provenance tag: which tracked source the value
// derives from (id is the canonical resource — a claim pair, an atomic
// field), a human witness fragment, and where the derivation started.
type provTag struct {
	id   string
	what string
	pos  token.Pos
}

// provClient parameterizes the taint engine.
type provClient interface {
	// seed returns a tag when e itself mints a tracked value (a
	// beginOp call, an atomic Load).
	seed(e ast.Expr) (provTag, bool)
	// derive decides whether a tag survives a projection or derivation
	// yielding type t (field select, index, deref, element, binary
	// op). Returning false cuts propagation — the field-granularity
	// policy lives here.
	derive(tag provTag, t types.Type) (provTag, bool)
	// call decides the tag of a call's result. recvTag/argTag are the
	// tags on the receiver expression and the first tainted argument
	// (nil when untainted); fn is the resolved callee or nil.
	call(call *ast.CallExpr, fn *types.Func, recvTag, argTag *provTag) (provTag, bool)
}

// funcTaint is the provenance result for one function body: the set
// of tainted locals and an expression resolver.
type funcTaint struct {
	info *types.Info
	c    provClient
	body *ast.BlockStmt
	objs map[types.Object]provTag
}

// taintFunc propagates the client's seeds through body to a fixpoint.
// Flow-insensitive: a local tainted on any path is treated as tainted
// at every use.
func taintFunc(info *types.Info, body *ast.BlockStmt, c provClient) *funcTaint {
	ft := &funcTaint{info: info, c: c, body: body, objs: map[types.Object]provTag{}}
	for pass := 0; pass < 32; pass++ {
		if !ft.propagateOnce() {
			break
		}
	}
	return ft
}

// mark taints the object an identifier binds (definition or use).
func (ft *funcTaint) mark(id *ast.Ident, tag provTag) bool {
	if id == nil || id.Name == "_" {
		return false
	}
	obj := ft.info.Defs[id]
	if obj == nil {
		obj = ft.info.Uses[id]
	}
	if obj == nil {
		return false
	}
	if _, done := ft.objs[obj]; done {
		return false
	}
	ft.objs[obj] = tag
	return true
}

func (ft *funcTaint) typeOf(e ast.Expr) types.Type {
	if tv, ok := ft.info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// propagateOnce runs one taint pass over every binding form and
// reports whether anything new was tainted.
func (ft *funcTaint) propagateOnce() bool {
	changed := false
	ast.Inspect(ft.body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue // stores to fields/elements are the analyzers' business
				}
				var rhs ast.Expr
				if len(s.Rhs) == len(s.Lhs) {
					rhs = s.Rhs[i]
				} else if len(s.Rhs) == 1 {
					rhs = s.Rhs[0]
				}
				if rhs == nil {
					continue
				}
				if tag, ok := ft.exprTag(rhs); ok {
					if t := ft.typeOf(lhs); t != nil {
						if dt, keep := ft.c.derive(tag, t); keep {
							changed = ft.mark(id, dt) || changed
						}
					} else {
						changed = ft.mark(id, tag) || changed
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				if i < len(s.Values) {
					if tag, ok := ft.exprTag(s.Values[i]); ok {
						changed = ft.mark(name, tag) || changed
					}
				} else if len(s.Values) == 1 {
					if tag, ok := ft.exprTag(s.Values[0]); ok {
						changed = ft.mark(name, tag) || changed
					}
				}
			}
		case *ast.RangeStmt:
			if tag, ok := ft.exprTag(s.X); ok {
				for _, e := range []ast.Expr{s.Key, s.Value} {
					id, isID := e.(*ast.Ident)
					if !isID {
						continue
					}
					if t := ft.typeOf(e); t != nil {
						if dt, keep := ft.c.derive(tag, t); keep {
							changed = ft.mark(id, dt) || changed
						}
					}
				}
			}
		}
		return true
	})
	return changed
}

// exprTag resolves the provenance tag of one expression.
func (ft *funcTaint) exprTag(e ast.Expr) (provTag, bool) {
	if e == nil {
		return provTag{}, false
	}
	if tag, ok := ft.c.seed(e); ok {
		return tag, true
	}
	switch x := e.(type) {
	case *ast.Ident:
		if obj := ft.info.Uses[x]; obj != nil {
			tag, ok := ft.objs[obj]
			return tag, ok
		}
	case *ast.ParenExpr:
		return ft.exprTag(x.X)
	case *ast.SelectorExpr:
		if tag, ok := ft.exprTag(x.X); ok {
			return ft.deriveAs(tag, e)
		}
	case *ast.IndexExpr:
		// Taint flows through the container, not the subscript: an
		// element of a tainted slice is tainted; indexing an untainted
		// map by a tainted key is not.
		if tag, ok := ft.exprTag(x.X); ok {
			return ft.deriveAs(tag, e)
		}
	case *ast.SliceExpr:
		if tag, ok := ft.exprTag(x.X); ok {
			return ft.deriveAs(tag, e)
		}
	case *ast.StarExpr:
		if tag, ok := ft.exprTag(x.X); ok {
			return ft.deriveAs(tag, e)
		}
	case *ast.UnaryExpr:
		if tag, ok := ft.exprTag(x.X); ok {
			return ft.deriveAs(tag, e)
		}
	case *ast.BinaryExpr:
		if tag, ok := ft.exprTag(x.X); ok {
			return ft.deriveAs(tag, e)
		}
		if tag, ok := ft.exprTag(x.Y); ok {
			return ft.deriveAs(tag, e)
		}
	case *ast.TypeAssertExpr:
		if tag, ok := ft.exprTag(x.X); ok {
			return ft.deriveAs(tag, e)
		}
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, isKV := el.(*ast.KeyValueExpr); isKV {
				el = kv.Value
			}
			if tag, ok := ft.exprTag(el); ok {
				return ft.deriveAs(tag, e)
			}
		}
	case *ast.CallExpr:
		var recvTag, argTag *provTag
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
			if tag, tOK := ft.exprTag(sel.X); tOK {
				recvTag = &tag
			}
		}
		for _, a := range x.Args {
			if tag, tOK := ft.exprTag(a); tOK {
				argTag = &tag
				break
			}
		}
		// The client is consulted even when nothing flowing in is
		// tainted: a call can mint taint by itself when the callee's
		// summary or fact says its result is tracked (an acquire
		// helper, a Load-returning helper).
		fn := calleeOf(ft.info, x)
		if recvTag == nil && argTag == nil && fn == nil {
			return provTag{}, false
		}
		return ft.c.call(x, fn, recvTag, argTag)
	case *ast.FuncLit:
		// A closure over a tainted local carries the taint: storing,
		// returning, or spawning it smuggles the value out.
		var found provTag
		ok := false
		ast.Inspect(x.Body, func(n ast.Node) bool {
			if ok {
				return false
			}
			id, isID := n.(*ast.Ident)
			if !isID {
				return true
			}
			obj := ft.info.Uses[id]
			if obj == nil {
				return true
			}
			if tag, tainted := ft.objs[obj]; tainted {
				// Only free variables count: a var declared inside the
				// literal is the literal's own business.
				if obj.Pos() < x.Pos() || obj.Pos() > x.End() {
					found, ok = tag, true
				}
			}
			return true
		})
		if ok {
			return provTag{id: found.id, what: found.what + ", captured by closure", pos: found.pos}, true
		}
	}
	return provTag{}, false
}

// deriveAs routes a projection through the client's derive policy
// using the projected expression's type.
func (ft *funcTaint) deriveAs(tag provTag, e ast.Expr) (provTag, bool) {
	t := ft.typeOf(e)
	if t == nil {
		return tag, true
	}
	return ft.c.derive(tag, t)
}

// leafValueType reports whether t is plain leaf data whose copies do
// not pin the tracked resource: basic types, strings, []byte/[]rune
// and other basic-element slices/arrays, and time-like values. The
// default derive policy for both snapshot and atomic provenance cuts
// at these — escaping a key bound or an epoch counter copies bytes,
// it does not retain the snapshot.
func leafValueType(t types.Type) bool {
	return leafValueDepth(t, 3)
}

func leafValueDepth(t types.Type, depth int) bool {
	if depth == 0 {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return true
	case *types.Slice:
		return leafValueDepth(u.Elem(), depth-1)
	case *types.Array:
		return leafValueDepth(u.Elem(), depth-1)
	}
	return false
}
