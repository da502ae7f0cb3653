package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
)

// Interprocedural analysis, one package at a time.
//
// This file builds, for one typechecked package, the summaries the
// lockorder/holdblock/releasepath analyzers consume:
//
//   - a branch-sensitive walk of every function body tracking the
//     multiset of sync.Mutex/RWMutex locks held at each statement,
//     recording lock acquisitions (and the acquired-while-held edges
//     they imply), direct blocking operations (channel ops, Cond.Wait,
//     WaitGroup.Wait, time.Sleep, and a call into another package made
//     on or passed one of the parkTypes), and every call to a function
//     of the same package together with the locks held at the call
//     site;
//   - a closure over the package's call graph propagating "may block"
//     and "may acquire lock L" through those calls.
//
// No summary crosses a package boundary, and none has to. Go's import
// graph is acyclic, no mutex in the tree is exported, and no function
// returns holding a lock, so a lock edge between two packages can only
// run from importer to importee and can never close a cycle. Every park
// in the tree goes through one of the parkTypes, which the walk treats
// as blocking wherever another package is handed one.
//
// Locks are named canonically so the same lock is one graph node no
// matter which instance or alias acquired it: a struct field becomes
// "<pkg>.<StructType>.<field>" (kvstore.Cluster.faultMu — one node for
// every Cluster instance), a package-level var "<pkg>.<var>", and a
// local variable "<pkg>.<func>.<var>". Instance-insensitivity is what
// makes the analysis a *lock class* order: two instances of move.mu
// are the same node, so acquiring one while holding another shows up
// as a self-edge for lockorder to interrogate.
//
// Known approximations, chosen to keep the walk simple and the
// findings reviewable:
//
//   - TryLock/TryRLock are ignored: modeling both outcomes of the
//     branch they feed is not worth it for the cooperative spin loops
//     they guard here (drainWriters), and assuming success would
//     fabricate held locks on the failure path.
//   - defer'd Unlock/RUnlock keeps the lock held to the end of the
//     body (that is its meaning); any other deferred call is analyzed
//     as if it ran with no locks held.
//   - a go statement's literal and non-invoked func literals are
//     analyzed as separate pseudo-functions starting with an empty held
//     set; their blocking does not propagate to the spawning function
//     (spawning does not block).
//   - a helper that returns while still holding a lock it acquired is
//     not threaded back through its callers' walks: releasepath reports
//     it at its own exit, where a justified acquire-helper carries
//     //lint:allow releasepath.
//   - calls through function values and interfaces are not followed.
type Interproc struct {
	pkg  *types.Package
	info *types.Info

	// funcs holds every analyzed function: named declarations first,
	// then func-literal pseudo-functions in encounter order.
	funcs []*funcInfo
	// byObj maps a named function's object to its info.
	byObj map[*types.Func]*funcInfo
}

// hold kinds: a real sync.Mutex/RWMutex, or a paired-call claim
// (beginOp/endOp routing claims) that releasepath balances but that
// must stay invisible to lockorder's edges and holdblock's held sets.
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

// ids returns the distinct held mutex IDs in acquisition order.
// Claim-kind holds are excluded: they are releasepath's business and
// must not grow lock-order edges.
func (h *held) ids() []string {
	var out []string
	seen := map[string]bool{}
	for _, l := range h.locks {
		if l.kind == kindMutex && !seen[l.id] {
			seen[l.id] = true
			out = append(out, l.id)
		}
	}
	return out
}

// exclusiveIDs returns the distinct exclusively-held mutex IDs.
func (h *held) exclusiveIDs() []string {
	var out []string
	seen := map[string]bool{}
	for _, l := range h.locks {
		if l.kind == kindMutex && l.exclusive && !seen[l.id] {
			seen[l.id] = true
			out = append(out, l.id)
		}
	}
	return out
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

// blockObs is one direct blocking operation and the locks held there.
type blockObs struct {
	desc string
	pos  token.Pos
	held []heldLock
}

// exitObs is one function exit (a return statement or the implicit
// fall-through at the closing brace) and the locks held there.
type exitObs struct {
	pos  token.Pos
	held []heldLock
}

// callObs is one call to a function of the same package and the locks
// held at the call site.
type callObs struct {
	fn   *types.Func
	pos  token.Pos
	held []heldLock
}

// localEdge is one acquired-while-held observation.
type localEdge struct {
	from, to string
	pos      token.Pos
}

// funcInfo is one function's summary: direct observations from the
// walk, then closure results.
type funcInfo struct {
	key     string // lock-ID scope: "Func" or "(*Type).Method"
	display string // for messages: "kvstore.(*Client).Get" or "func literal in ..."
	decl    *ast.FuncDecl

	blocksDirect []blockObs
	calls        []callObs
	edges        []localEdge
	acquires     map[string]bool

	// release-path observations (for releasepath)
	exits       []exitObs
	releasedIDs map[string]bool   // ids released (or defer-released) on some path
	claimNames  map[string]string // claim id → human name ("routing claim kvstore.beginOp/endOp")

	// closure results
	mayBlock    bool
	blockPath   string
	allAcquires map[string]bool
}

func newFuncInfo(key, display string, decl *ast.FuncDecl) *funcInfo {
	return &funcInfo{
		key:         key,
		display:     display,
		decl:        decl,
		acquires:    map[string]bool{},
		releasedIDs: map[string]bool{},
		claimNames:  map[string]string{},
	}
}

// buildInterproc runs the walk and closure over the unit's non-test
// files. The unit must be typechecked (Pkg and Info non-nil).
func buildInterproc(u *Unit, files []*ast.File) *Interproc {
	ip := &Interproc{
		pkg:   u.Pkg,
		info:  u.Info,
		byObj: map[*types.Func]*funcInfo{},
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := ip.info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			fi := newFuncInfo(funcKey(obj), ip.pkg.Name()+"."+funcKey(obj), fd)
			ip.funcs = append(ip.funcs, fi)
			ip.byObj[obj] = fi
		}
	}
	// The walk appends pseudo-functions to funcs; walk the declarations
	// registered above.
	for _, fi := range append([]*funcInfo(nil), ip.funcs...) {
		h := &held{}
		if !ip.walkStmt(fi, fi.decl.Body, h) {
			ip.recordExit(fi, fi.decl.Body.Rbrace, h)
		}
	}
	ip.closure()
	return ip
}

// recordExit notes the held set at one function exit. Loop bodies are
// walked twice, so a repeat at the same position unions into the
// existing record (the second pass may carry back-edge holds).
func (ip *Interproc) recordExit(fi *funcInfo, pos token.Pos, h *held) {
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
// The walk.
//
// Control flow lives in the branch-sensitive walker (dataflow.go); this
// section supplies its statement and expression semantics.

// walkStmt walks one statement of fi's body under h (walkCall reuses it
// for immediately-invoked literals).
func (ip *Interproc) walkStmt(fi *funcInfo, st ast.Stmt, h *held) bool {
	return (&flowWalker{ip: ip, fi: fi}).stmt(st, h)
}

// leafStmt handles a non-control-flow statement (expression, send,
// assign, decl, inc/dec, defer, go).
func (w *flowWalker) leafStmt(st ast.Stmt, h *held) {
	ip, fi := w.ip, w.fi
	switch s := st.(type) {
	case *ast.ExprStmt:
		ip.walkExpr(fi, s.X, h)
	case *ast.SendStmt:
		ip.walkExpr(fi, s.Chan, h)
		ip.walkExpr(fi, s.Value, h)
		ip.block(fi, "channel send", s.Arrow, h)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			ip.walkExpr(fi, e, h)
		}
		for _, e := range s.Lhs {
			ip.walkExpr(fi, e, h)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok2 := spec.(*ast.ValueSpec); ok2 {
					for _, e := range vs.Values {
						ip.walkExpr(fi, e, h)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		ip.walkExpr(fi, s.X, h)
	case *ast.DeferStmt:
		ip.walkDefer(fi, s, h)
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			ip.walkExpr(fi, a, h)
		}
		// Spawning blocks nothing here; a literal's body runs on its own
		// goroutine, so it is walked as a pseudo-function with no locks
		// held.
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			ip.pseudoFunc(fi, lit, "goroutine")
		}
	}
}

func (w *flowWalker) rangeObs(s *ast.RangeStmt, h *held) {
	if t := w.ip.info.TypeOf(s.X); t != nil {
		if _, isChan := t.Underlying().(*types.Chan); isChan {
			w.ip.block(w.fi, "range over channel", s.For, h)
		}
	}
}

func (w *flowWalker) selectObs(s *ast.SelectStmt, h *held) {
	for _, cl := range s.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			return // a default clause: the select never blocks
		}
	}
	w.ip.block(w.fi, "select with no default", s.Select, h)
}

// comm walks a select case's communication statement without
// recording it as a standalone blocking operation: the select itself
// is the block (already recorded, with a default clause making it
// non-blocking), so routing the comm through the walker's leaf path
// would fabricate a "channel send/receive" observation inside
// select{…: default:} shapes. Operand subexpressions still get walked
// (they can contain calls).
func (w *flowWalker) comm(st ast.Stmt, h *held) {
	ip, fi := w.ip, w.fi
	switch s := st.(type) {
	case nil:
	case *ast.SendStmt:
		ip.walkExpr(fi, s.Chan, h)
		ip.walkExpr(fi, s.Value, h)
	case *ast.ExprStmt:
		if u, ok := ast.Unparen(s.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			ip.walkExpr(fi, u.X, h)
			return
		}
		w.stmt(s, h)
	case *ast.AssignStmt:
		for _, e := range s.Lhs {
			ip.walkExpr(fi, e, h)
		}
		for _, e := range s.Rhs {
			if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				ip.walkExpr(fi, u.X, h)
			} else {
				ip.walkExpr(fi, e, h)
			}
		}
	default:
		w.stmt(st, h)
	}
}

// walkDefer handles defer: a deferred Unlock/RUnlock means the lock
// stays held to the end of the body (so: do nothing); any other
// deferred work runs at return with an unknown held set, analyzed as a
// pseudo-function with none.
func (ip *Interproc) walkDefer(fi *funcInfo, s *ast.DeferStmt, h *held) {
	for _, a := range s.Call.Args {
		ip.walkExpr(fi, a, h)
	}
	if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		ip.pseudoFunc(fi, lit, "deferred func")
		return
	}
	fn := calleeOf(ip.info, s.Call)
	if fn == nil {
		return
	}
	if isSyncMethod(fn) {
		switch fn.Name() {
		case "Unlock", "RUnlock":
			// Lock held through the body, released at every return: mark
			// the hold deferred so releasepath treats the exits as
			// balanced.
			if sel, ok := ast.Unparen(s.Call.Fun).(*ast.SelectorExpr); ok {
				id := ip.lockID(fi, sel.X)
				if h.markDeferred(id, fn.Name() == "Unlock") {
					fi.releasedIDs[id] = true
				}
			}
		}
		return
	}
	// defer cl.c.endOp(rt): the claim releases on every exit.
	if id, ok := ip.claimRelease(fn); ok {
		if h.markDeferred(id, true) {
			fi.releasedIDs[id] = true
		}
	}
}

// claimPairs maps a claim-acquiring call name to its releasing
// counterpart. Claims are same-package paired calls with the semantics
// of a resource hold — the kvstore routing claim (`beginOp` pins a
// routing snapshot's refcount until `endOp`) is the one in this tree —
// tracked branch-sensitively like locks but invisible to lockorder
// and holdblock (a claim does not exclude anyone).
var claimPairs = map[string]string{
	"beginOp": "endOp",
}

// claimAcquire reports whether fn acquires a claim, returning the
// claim's canonical ID ("kvstore.beginOp/endOp") and display name.
func (ip *Interproc) claimAcquire(fn *types.Func) (id, desc string, ok bool) {
	rel, found := claimPairs[fn.Name()]
	if !found || fn.Pkg() != ip.pkg {
		return "", "", false
	}
	id = fn.Pkg().Name() + "." + fn.Name() + "/" + rel
	return id, "claim " + id, true
}

// claimRelease reports whether fn releases a claim, returning the
// claim's canonical ID.
func (ip *Interproc) claimRelease(fn *types.Func) (string, bool) {
	if fn.Pkg() != ip.pkg {
		return "", false
	}
	for acq, rel := range claimPairs {
		if fn.Name() == rel {
			return fn.Pkg().Name() + "." + acq + "/" + rel, true
		}
	}
	return "", false
}

// block records a direct blocking operation at pos under h.
func (ip *Interproc) block(fi *funcInfo, desc string, pos token.Pos, h *held) {
	// Loop bodies are walked twice: like recordExit, the second visit of
	// a position unions its holds into the first's record.
	for i, o := range fi.blocksDirect {
		if o.pos == pos {
			fi.blocksDirect[i].held = unionHeld(&held{locks: o.held}, h).locks
			return
		}
	}
	fi.blocksDirect = append(fi.blocksDirect, blockObs{
		desc: desc,
		pos:  pos,
		held: append([]heldLock(nil), h.locks...),
	})
}

// pseudoFunc analyzes a func literal as its own function with an empty
// held set (it runs on its own goroutine or at defer time).
func (ip *Interproc) pseudoFunc(parent *funcInfo, lit *ast.FuncLit, kind string) {
	fi := newFuncInfo("", fmt.Sprintf("%s in %s", kind, parent.display), nil)
	ip.funcs = append(ip.funcs, fi)
	h := &held{}
	if !ip.walkStmt(fi, lit.Body, h) {
		ip.recordExit(fi, lit.Body.Rbrace, h)
	}
}

// isSyncMethod reports whether fn is a method of sync.Mutex/RWMutex.
func isSyncMethod(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	name := recvTypeName(fn)
	return name == "Mutex" || name == "RWMutex"
}

// walkExpr analyzes one expression under h, handling calls, channel
// receives, and func literals specially and recursing structurally
// otherwise.
func (ip *Interproc) walkExpr(fi *funcInfo, e ast.Expr, h *held) {
	switch x := e.(type) {
	case nil:
		return
	case *ast.CallExpr:
		ip.walkCall(fi, x, h)
	case *ast.UnaryExpr:
		ip.walkExpr(fi, x.X, h)
		if x.Op == token.ARROW {
			ip.block(fi, "channel receive", x.OpPos, h)
		}
	case *ast.FuncLit:
		ip.pseudoFunc(fi, x, "func literal")
	default:
		// Structural recursion: route each immediate child expression
		// back through walkExpr so the cases above fire at any depth.
		ast.Inspect(e, func(n ast.Node) bool {
			if n == ast.Node(e) {
				return true
			}
			if child, ok := n.(ast.Expr); ok {
				ip.walkExpr(fi, child, h)
				return false
			}
			return true
		})
	}
}

// walkCall classifies one call: mutex acquire/release, claim, known
// standard-library blocking primitive, immediately-invoked literal, a
// call to a function of this package, or a call into another package
// that may park through one of the parkTypes.
func (ip *Interproc) walkCall(fi *funcInfo, call *ast.CallExpr, h *held) {
	// Evaluate the callee expression and arguments first — they may
	// themselves contain calls or receives.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		ip.walkExpr(fi, sel.X, h)
	}
	for _, a := range call.Args {
		ip.walkExpr(fi, a, h)
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// Immediately-invoked literal: runs inline, same held set.
		ip.walkStmt(fi, lit.Body, h)
		return
	}
	fn := calleeOf(ip.info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if isSyncMethod(fn) {
		ip.walkSyncOp(fi, call, fn, h)
		return
	}
	// Paired-call claims track like locks (branch-sensitively, for
	// releasepath) but never enter the lock graph.
	if id, desc, ok := ip.claimAcquire(fn); ok {
		fi.claimNames[id] = desc
		h.acquire(heldLock{id: id, exclusive: true, kind: kindClaim})
		return
	}
	if id, ok := ip.claimRelease(fn); ok {
		if h.release(id, true) {
			fi.releasedIDs[id] = true
		}
		return
	}
	path := fn.Pkg().Path()
	switch {
	case path == "sync" && fn.Name() == "Wait" && recvTypeName(fn) == "Cond":
		ip.block(fi, "sync.Cond.Wait", call.Pos(), h)
	case path == "sync" && fn.Name() == "Wait" && recvTypeName(fn) == "WaitGroup":
		ip.block(fi, "sync.WaitGroup.Wait", call.Pos(), h)
	case path == "time" && fn.Name() == "Sleep":
		ip.block(fi, "time.Sleep", call.Pos(), h)
	case fn.Pkg() == ip.pkg:
		// A loop body's second pass unions into the first's record, as
		// in block.
		if i := slices.IndexFunc(fi.calls, func(c callObs) bool { return c.pos == call.Pos() }); i >= 0 {
			fi.calls[i].held = unionHeld(&held{locks: fi.calls[i].held}, h).locks
		} else {
			fi.calls = append(fi.calls, callObs{
				fn:   fn,
				pos:  call.Pos(),
				held: append([]heldLock(nil), h.locks...),
			})
		}
	default:
		if t := ip.parkOperand(call); t != "" {
			ip.block(fi, "call to "+calleeDisplay(fn)+" (parks through a "+t+")", call.Pos(), h)
		}
	}
}

// parkTypes are the types every park in the tree goes through: a
// simulated process (sim.Proc's Sleep, Yield and Parallel), a node's
// request queue (sim.Resource's Acquire and Use), and a store client,
// whose every request may park its process. Keyed "<pkg>.<Type>".
var parkTypes = map[string]bool{
	"sim.Proc":       true,
	"sim.Resource":   true,
	"kvstore.Client": true,
}

// parkOperand names the parking type ("*sim.Proc") a call is made on
// or passed, or returns "".
func (ip *Interproc) parkOperand(call *ast.CallExpr) string {
	operands := call.Args
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		operands = append([]ast.Expr{sel.X}, operands...)
	}
	for _, e := range operands {
		p, _ := ip.info.TypeOf(e).(*types.Pointer)
		if p == nil {
			continue
		}
		if n, ok := p.Elem().(*types.Named); ok && n.Obj().Pkg() != nil {
			if name := n.Obj().Pkg().Name() + "." + n.Obj().Name(); parkTypes[name] {
				return "*" + name
			}
		}
	}
	return ""
}

// walkSyncOp handles Lock/RLock/Unlock/RUnlock/TryLock on a
// sync.Mutex or RWMutex (including one embedded in a local struct).
func (ip *Interproc) walkSyncOp(fi *funcInfo, call *ast.CallExpr, fn *types.Func, h *held) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	id := ip.lockID(fi, sel.X)
	switch fn.Name() {
	case "Lock", "RLock":
		excl := fn.Name() == "Lock"
		for _, from := range h.ids() {
			fi.edges = append(fi.edges, localEdge{from: from, to: id, pos: call.Pos()})
		}
		fi.acquires[id] = true
		h.acquire(heldLock{id: id, exclusive: excl})
	case "Unlock", "RUnlock":
		if h.release(id, fn.Name() == "Unlock") {
			fi.releasedIDs[id] = true
		}
		// TryLock/TryRLock: ignored (see the package comment).
	}
}

// lockID renders the canonical name of the lock denoted by x (the
// receiver of a Lock/Unlock call).
func (ip *Interproc) lockID(fi *funcInfo, x ast.Expr) string {
	fnName := fi.key
	if fnName == "" {
		fnName = "func"
	}
	x = ast.Unparen(x)
	switch v := x.(type) {
	case *ast.SelectorExpr:
		if selInfo, ok := ip.info.Selections[v]; ok && selInfo.Kind() == types.FieldVal {
			// Owner is the named struct type holding the field (walk
			// past pointers); instance-insensitive by construction.
			t := ip.info.TypeOf(v.X)
			for {
				if p, okp := t.(*types.Pointer); okp {
					t = p.Elem()
					continue
				}
				break
			}
			owner := ""
			pkgName := ip.pkg.Name()
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
		if obj, ok := ip.info.Uses[v.Sel]; ok && obj.Pkg() != nil {
			return obj.Pkg().Name() + "." + obj.Name()
		}
		return ip.pkg.Name() + "." + v.Sel.Name
	case *ast.Ident:
		obj := ip.info.ObjectOf(v)
		if obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Name() + "." + obj.Name()
		}
		// Local variable (possibly a struct embedding a mutex): scope
		// the name to the enclosing function.
		return ip.pkg.Name() + "." + fnName + "." + v.Name
	default:
		return ip.pkg.Name() + "." + types.ExprString(x)
	}
}

// ---------------------------------------------------------------------
// Closure.

// calleeDisplay renders a callee for diagnostics: "kvstore.(*Client).Get".
func calleeDisplay(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Name() + "." + funcKey(fn)
}

// closure propagates "may block" and "may acquire" through the
// package's own calls until stable; the function and lock-ID sets are
// finite, so it terminates.
func (ip *Interproc) closure() {
	for _, fi := range ip.funcs {
		fi.allAcquires = maps.Clone(fi.acquires)
		if len(fi.blocksDirect) > 0 {
			fi.mayBlock = true
			fi.blockPath = fi.blocksDirect[0].desc
		}
	}
	changed := true
	for changed {
		changed = false
		for _, fi := range ip.funcs {
			for _, c := range fi.calls {
				callee := ip.byObj[c.fn]
				if callee == nil {
					continue
				}
				if callee.mayBlock && !fi.mayBlock {
					fi.mayBlock = true
					fi.blockPath = calleeDisplay(c.fn)
					if len(callee.blockPath) < 120 {
						fi.blockPath += " → " + callee.blockPath
					}
					changed = true
				}
				for id := range callee.allAcquires {
					if !fi.allAcquires[id] {
						fi.allAcquires[id] = true
						changed = true
					}
				}
			}
		}
	}
}

// ---------------------------------------------------------------------
// Results.

// allEdges returns every acquired-while-held edge of the package:
// direct acquisitions plus call-derived ones (locks held at a call site
// × locks the callee may acquire).
func (ip *Interproc) allEdges() []localEdge {
	var out []localEdge
	for _, fi := range ip.funcs {
		out = append(out, fi.edges...)
		for _, c := range fi.calls {
			callee := ip.byObj[c.fn]
			if callee == nil {
				continue
			}
			for _, from := range (&held{locks: c.held}).ids() {
				for _, to := range slices.Sorted(maps.Keys(callee.allAcquires)) {
					out = append(out, localEdge{from: from, to: to, pos: c.pos})
				}
			}
		}
	}
	return out
}
