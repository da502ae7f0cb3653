package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The held-lock walk, one function at a time.
//
// For every function of one typechecked package (and every func
// literal in it, as a pseudo-function of its own) the walk tracks,
// branch-sensitively, the multiset of sync.Mutex/RWMutex locks and
// paired-call claims held at each statement, and records what is still
// held at each exit. releasepath reads the exits. No summary is carried
// from a function into its callers or from one package to the next.
//
// Locks are named canonically so the same lock is one ID no matter
// which instance or alias acquired it: a struct field becomes
// "<pkg>.<StructType>.<field>" (kvstore.Cluster.faultMu), a
// package-level var "<pkg>.<var>", and a local variable
// "<pkg>.<func>.<var>".
//
// Known approximations, chosen to keep the walk simple and the
// findings reviewable:
//
//   - TryLock/TryRLock are ignored: modeling both outcomes of the
//     branch they feed is not worth it for the cooperative spin loops
//     they guard here (drainWriters), and assuming success would
//     fabricate held locks on the failure path.
//   - defer'd Unlock/RUnlock keeps the lock held to the end of the
//     body (that is its meaning); any other deferred call is walked
//     as if it ran with no locks held.
//   - a go statement's literal and non-invoked func literals are
//     walked as separate pseudo-functions starting with an empty held
//     set.
//   - a helper that returns while still holding a lock it acquired is
//     not threaded back through its callers' walks: releasepath reports
//     it at its own exit, where a justified acquire-helper carries
//     //lint:allow releasepath.
//   - calls through function values and interfaces are not followed.

// hold kinds: a real sync.Mutex/RWMutex, or a paired-call claim
// (beginOp/endOp routing claims) that releasepath balances like one.
const (
	kindMutex int8 = iota
	kindClaim
)

// heldLock is one held lock: its canonical ID, whether the hold is
// exclusive (Lock) or shared (RLock), its kind, and whether a deferred
// release is registered for it (so exits do not count it leaked).
type heldLock struct {
	id        string
	exclusive bool
	kind      int8
	deferred  bool
}

// held is the multiset of locks held at a program point, in
// acquisition order.
type held struct {
	locks []heldLock
}

func (h *held) clone() *held {
	return &held{locks: append([]heldLock(nil), h.locks...)}
}

func (h *held) acquire(l heldLock) { h.locks = append(h.locks, l) }

// release removes the most recent matching hold and reports whether
// one was found; releasing a lock that is not held is a no-op (e.g.
// the Unlock after a TryLock loop the walker deliberately did not
// model).
func (h *held) release(id string, exclusive bool) bool {
	for i := len(h.locks) - 1; i >= 0; i-- {
		if h.locks[i].id == id && h.locks[i].exclusive == exclusive {
			h.locks = append(h.locks[:i], h.locks[i+1:]...)
			return true
		}
	}
	return false
}

// markDeferred flags the most recent matching hold as covered by a
// deferred release and reports whether one was found.
func (h *held) markDeferred(id string, exclusive bool) bool {
	for i := len(h.locks) - 1; i >= 0; i-- {
		if h.locks[i].id == id && h.locks[i].exclusive == exclusive && !h.locks[i].deferred {
			h.locks[i].deferred = true
			return true
		}
	}
	return false
}

// unionHeld merges the exits of two branches: a lock is (may-)held
// after the merge if either branch held it.
func unionHeld(a, b *held) *held {
	out := a.clone()
	have := map[heldLock]int{}
	for _, l := range out.locks {
		have[l]++
	}
	counts := map[heldLock]int{}
	for _, l := range b.locks {
		counts[l]++
		if counts[l] > have[l] {
			out.locks = append(out.locks, l)
			have[l]++
		}
	}
	return out
}

// exitObs is one function exit (a return statement or the implicit
// fall-through at the closing brace) and the locks held there.
type exitObs struct {
	pos  token.Pos
	held []heldLock
}

// funcInfo is what the walk saw of one function.
type funcInfo struct {
	key     string // lock-ID scope: "Func" or "(*Type).Method"
	display string // for messages: "kvstore.(*Client).Get" or "func literal in ..."

	exits       []exitObs
	releasedIDs map[string]bool // ids released (or defer-released) on some path
}

func newFuncInfo(key, display string) *funcInfo {
	return &funcInfo{key: key, display: display, releasedIDs: map[string]bool{}}
}

// heldWalk is one package's walk: its types and every function walked
// so far, named declarations first, then func-literal pseudo-functions
// in encounter order.
type heldWalk struct {
	pkg   *types.Package
	info  *types.Info
	funcs []*funcInfo
}

// walkHeldLocks walks every function of the unit's non-test files. The
// unit must be typechecked (Pkg and Info non-nil).
func walkHeldLocks(u *Unit, files []*ast.File) []*funcInfo {
	hw := &heldWalk{pkg: u.Pkg, info: u.Info}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := hw.info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			fi := newFuncInfo(funcKey(obj), hw.pkg.Name()+"."+funcKey(obj))
			hw.funcs = append(hw.funcs, fi)
			(&flowWalker{hw, fi}).body(fd.Body)
		}
	}
	return hw.funcs
}

// body walks a function body from an empty held set and records the
// fall-through exit at its closing brace.
func (w *flowWalker) body(b *ast.BlockStmt) {
	h := &held{}
	if !w.stmt(b, h) {
		w.recordExit(b.Rbrace, h)
	}
}

// recordExit notes the held set at one function exit. Loop bodies are
// walked twice, so a repeat at the same position unions into the
// existing record (the second pass may carry back-edge holds).
func (w *flowWalker) recordExit(pos token.Pos, h *held) {
	fi := w.fi
	for i, e := range fi.exits {
		if e.pos == pos {
			fi.exits[i].held = unionHeld(&held{locks: e.held}, h).locks
			return
		}
	}
	fi.exits = append(fi.exits, exitObs{pos: pos, held: append([]heldLock(nil), h.locks...)})
}

// funcKey renders a function the way a call site reads: "Func",
// "(Type).Method", "(*Type).Method".
func funcKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	ptr := false
	if p, okp := t.(*types.Pointer); okp {
		t = p.Elem()
		ptr = true
	}
	named, okn := t.(*types.Named)
	if !okn {
		return fn.Name()
	}
	if ptr {
		return "(*" + named.Obj().Name() + ")." + fn.Name()
	}
	return "(" + named.Obj().Name() + ")." + fn.Name()
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

// ---------------------------------------------------------------------
// Statement and expression semantics.
//
// Control flow lives in the branch-sensitive walker (dataflow.go); this
// section supplies what a statement or expression does to the held set.

// leafStmt handles a non-control-flow statement (expression, send,
// assign, decl, inc/dec, defer, go).
func (w *flowWalker) leafStmt(st ast.Stmt, h *held) {
	switch s := st.(type) {
	case *ast.ExprStmt:
		w.expr(s.X, h)
	case *ast.SendStmt:
		w.expr(s.Chan, h)
		w.expr(s.Value, h)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, h)
		}
		for _, e := range s.Lhs {
			w.expr(e, h)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok2 := spec.(*ast.ValueSpec); ok2 {
					for _, e := range vs.Values {
						w.expr(e, h)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		w.expr(s.X, h)
	case *ast.DeferStmt:
		w.walkDefer(s, h)
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			w.expr(a, h)
		}
		// A literal's body runs on its own goroutine, so it is walked as
		// a pseudo-function with no locks held.
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.pseudoFunc(lit, "goroutine")
		}
	}
}

// walkDefer handles defer: a deferred Unlock/RUnlock means the lock
// stays held to the end of the body, released at every exit; any other
// deferred work runs at return with an unknown held set, walked as a
// pseudo-function with none.
func (w *flowWalker) walkDefer(s *ast.DeferStmt, h *held) {
	for _, a := range s.Call.Args {
		w.expr(a, h)
	}
	if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		w.pseudoFunc(lit, "deferred func")
		return
	}
	fn := calleeOf(w.info, s.Call)
	if fn == nil {
		return
	}
	if isSyncMethod(fn) {
		switch fn.Name() {
		case "Unlock", "RUnlock":
			// Mark the hold deferred so releasepath treats the exits as
			// balanced.
			if sel, ok := ast.Unparen(s.Call.Fun).(*ast.SelectorExpr); ok {
				id := w.lockID(sel.X)
				if h.markDeferred(id, fn.Name() == "Unlock") {
					w.fi.releasedIDs[id] = true
				}
			}
		}
		return
	}
	// defer cl.c.endOp(rt): the claim releases on every exit.
	if id, ok := w.claimRelease(fn); ok {
		if h.markDeferred(id, true) {
			w.fi.releasedIDs[id] = true
		}
	}
}

// claimPairs maps a claim-acquiring call name to its releasing
// counterpart. Claims are same-package paired calls with the semantics
// of a resource hold — the kvstore routing claim (`beginOp` pins a
// routing snapshot's refcount until `endOp`) is the one in this tree —
// tracked branch-sensitively like locks.
var claimPairs = map[string]string{
	"beginOp": "endOp",
}

// claimAcquire reports whether fn acquires a claim, returning the
// claim's canonical ID ("kvstore.beginOp/endOp").
func (w *flowWalker) claimAcquire(fn *types.Func) (string, bool) {
	rel, found := claimPairs[fn.Name()]
	if !found || fn.Pkg() != w.pkg {
		return "", false
	}
	return fn.Pkg().Name() + "." + fn.Name() + "/" + rel, true
}

// claimRelease reports whether fn releases a claim, returning the
// claim's canonical ID.
func (w *flowWalker) claimRelease(fn *types.Func) (string, bool) {
	if fn.Pkg() != w.pkg {
		return "", false
	}
	for acq, rel := range claimPairs {
		if fn.Name() == rel {
			return fn.Pkg().Name() + "." + acq + "/" + rel, true
		}
	}
	return "", false
}

// pseudoFunc walks a func literal as its own function with an empty
// held set (it runs on its own goroutine or at defer time).
func (w *flowWalker) pseudoFunc(lit *ast.FuncLit, kind string) {
	fi := newFuncInfo("", fmt.Sprintf("%s in %s", kind, w.fi.display))
	w.funcs = append(w.funcs, fi)
	(&flowWalker{w.heldWalk, fi}).body(lit.Body)
}

// isSyncMethod reports whether fn is a method of sync.Mutex/RWMutex.
func isSyncMethod(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	name := recvTypeName(fn)
	return name == "Mutex" || name == "RWMutex"
}

// expr walks one expression under h: calls and func literals at any
// depth.
func (w *flowWalker) expr(e ast.Expr, h *held) {
	switch x := e.(type) {
	case nil:
		return
	case *ast.CallExpr:
		w.walkCall(x, h)
	case *ast.FuncLit:
		w.pseudoFunc(x, "func literal")
	default:
		// Structural recursion: route each immediate child expression
		// back through expr so the cases above fire at any depth.
		ast.Inspect(e, func(n ast.Node) bool {
			if n == ast.Node(e) {
				return true
			}
			if child, ok := n.(ast.Expr); ok {
				w.expr(child, h)
				return false
			}
			return true
		})
	}
}

// walkCall classifies one call: mutex acquire/release, claim acquire or
// release, or an immediately-invoked literal; any other call leaves the
// held set as it was.
func (w *flowWalker) walkCall(call *ast.CallExpr, h *held) {
	// Evaluate the callee expression and arguments first — they may
	// themselves contain calls.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.expr(sel.X, h)
	}
	for _, a := range call.Args {
		w.expr(a, h)
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// Immediately-invoked literal: runs inline, same held set.
		w.stmt(lit.Body, h)
		return
	}
	fn := calleeOf(w.info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if isSyncMethod(fn) {
		w.walkSyncOp(call, fn, h)
		return
	}
	if id, ok := w.claimAcquire(fn); ok {
		h.acquire(heldLock{id: id, exclusive: true, kind: kindClaim})
		return
	}
	if id, ok := w.claimRelease(fn); ok && h.release(id, true) {
		w.fi.releasedIDs[id] = true
	}
}

// walkSyncOp handles Lock/RLock/Unlock/RUnlock/TryLock on a
// sync.Mutex or RWMutex (including one embedded in a local struct).
func (w *flowWalker) walkSyncOp(call *ast.CallExpr, fn *types.Func, h *held) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	id := w.lockID(sel.X)
	switch fn.Name() {
	case "Lock", "RLock":
		h.acquire(heldLock{id: id, exclusive: fn.Name() == "Lock"})
	case "Unlock", "RUnlock":
		if h.release(id, fn.Name() == "Unlock") {
			w.fi.releasedIDs[id] = true
		}
		// TryLock/TryRLock: ignored (see the top of this file).
	}
}

// lockID renders the canonical name of the lock denoted by x (the
// receiver of a Lock/Unlock call).
func (w *flowWalker) lockID(x ast.Expr) string {
	fnName := w.fi.key
	if fnName == "" {
		fnName = "func"
	}
	x = ast.Unparen(x)
	switch v := x.(type) {
	case *ast.SelectorExpr:
		if selInfo, ok := w.info.Selections[v]; ok && selInfo.Kind() == types.FieldVal {
			// Owner is the named struct type holding the field (walk
			// past pointers), whichever instance this is.
			t := w.info.TypeOf(v.X)
			for {
				if p, okp := t.(*types.Pointer); okp {
					t = p.Elem()
					continue
				}
				break
			}
			owner := ""
			pkgName := w.pkg.Name()
			if named, okn := t.(*types.Named); okn {
				owner = named.Obj().Name()
				if named.Obj().Pkg() != nil {
					pkgName = named.Obj().Pkg().Name()
				}
			}
			field := selInfo.Obj().Name()
			if owner != "" {
				return pkgName + "." + owner + "." + field
			}
			return pkgName + "." + field
		}
		// Package-qualified or otherwise: fall back to the object.
		if obj, ok := w.info.Uses[v.Sel]; ok && obj.Pkg() != nil {
			return obj.Pkg().Name() + "." + obj.Name()
		}
		return w.pkg.Name() + "." + v.Sel.Name
	case *ast.Ident:
		obj := w.info.ObjectOf(v)
		if obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Name() + "." + obj.Name()
		}
		// Local variable (possibly a struct embedding a mutex): scope
		// the name to the enclosing function.
		return w.pkg.Name() + "." + fnName + "." + v.Name
	default:
		return w.pkg.Name() + "." + types.ExprString(x)
	}
}
