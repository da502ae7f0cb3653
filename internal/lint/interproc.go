package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Interprocedural analysis.
//
// This file builds, for one typechecked package, the summaries the
// lockorder/holdblock/releasepath/errtaxonomy analyzers consume:
//
//   - a branch-sensitive walk of every function body tracking the
//     multiset of sync.Mutex/RWMutex locks held at each statement,
//     recording lock acquisitions (and the acquired-while-held edges
//     they imply), direct blocking operations (channel ops, Cond.Wait,
//     WaitGroup.Wait, time.Sleep), and every call to a module-local
//     function together with the locks held at the call site;
//   - a fixpoint over the package's call graph propagating "may
//     block", "may acquire lock L", and "may return a transient
//     error" through local calls, seeded across package boundaries by
//     the dependency facts in the Unit's FactStore.
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
//     modeled only across package boundaries: its unbalanced
//     acquisitions export as NetAcquires/NetReleases facts, which a
//     dependent package's walk applies at the call site. Same-package
//     helper pairs are not threaded back through the walk (the walk
//     runs before the fixpoint); in-package discipline is covered by
//     the direct sync-op and claim-pair tracking instead.
type Interproc struct {
	unit *Unit
	pkg  *types.Package
	info *types.Info

	// funcs holds every analyzed function: named declarations first,
	// then func-literal pseudo-functions in encounter order.
	funcs []*funcInfo
	// byObj maps a named function's object to its info.
	byObj map[*types.Func]*funcInfo

	// transientTypes names the package-local error types whose Unwrap
	// chains to ErrTransient, e.g. "*kvstore.ErrNodeDown".
	transientTypes map[string]bool
	// hasTransientSentinel reports a package-level `var ErrTransient`.
	hasTransientSentinel bool
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

// callObs is one call to a module-local function and the locks held at
// the call site.
type callObs struct {
	fn   *types.Func
	pos  token.Pos
	held []heldLock
}

// localEdge is one acquired-while-held observation with a real
// position (facts carry the rendered form).
type localEdge struct {
	from, to string
	pos      token.Pos
}

// funcInfo is one function's summary: direct observations from the
// walk, then fixpoint results.
type funcInfo struct {
	key     string // facts key: "Func" or "(*Type).Method"
	display string // for messages: "kvstore.(*Client).Get" or "func literal in ..."
	decl    *ast.FuncDecl
	pseudo  bool // func literal / go body: not exported in facts

	blocksDirect []blockObs
	calls        []callObs
	edges        []localEdge
	acquires     map[string]bool

	// release-path observations (for releasepath and the
	// NetAcquires/NetReleases facts)
	exits       []exitObs
	releasedIDs map[string]bool   // ids released (or defer-released) on some path
	netReleases map[string]bool   // ids released with no matching local hold
	claimNames  map[string]string // claim id → human name ("routing claim kvstore.beginOp/endOp")

	// error-return structure (for the transient fixpoint)
	retTypes    map[string]bool // typed errors returned directly, "*pkg.T"
	retSentinel bool            // returns ErrTransient itself
	retWrap     bool            // returns fmt.Errorf("...%w...", transient-candidate)
	retCallees  []*types.Func   // error results forwarded from these callees

	// fixpoint results
	mayBlock     bool
	blockPath    string
	allAcquires  map[string]bool
	transient    bool
	allErrTypes  map[string]bool
	transientVia string // witness: callee chain or "returns *pkg.T"
}

// buildInterproc runs the walk and fixpoint over the unit's non-test
// files. The unit must be typechecked (Pkg and Info non-nil).
func buildInterproc(u *Unit, files []*ast.File) *Interproc {
	ip := &Interproc{
		unit:  u,
		pkg:   u.Pkg,
		info:  u.Info,
		byObj: map[*types.Func]*funcInfo{},
	}
	ip.findTransientTypes(files)
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
			fi := &funcInfo{
				key:         funcKey(obj),
				display:     ip.pkg.Name() + "." + funcKey(obj),
				decl:        fd,
				acquires:    map[string]bool{},
				retTypes:    map[string]bool{},
				releasedIDs: map[string]bool{},
				netReleases: map[string]bool{},
				claimNames:  map[string]string{},
			}
			ip.funcs = append(ip.funcs, fi)
			ip.byObj[obj] = fi
		}
	}
	// Walk after registration so local calls resolve during the walk.
	for _, fi := range append([]*funcInfo(nil), ip.funcs...) {
		h := &held{}
		if !ip.walkStmt(fi, fi.decl.Body, h) {
			ip.recordExit(fi, fi.decl.Body.Rbrace, h)
		}
	}
	ip.fixpoint()
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
// "(Type).Method", "(*Type).Method". It is the facts-file key, so it
// must be stable across the exporting and importing packages.
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

// findTransientTypes records package-local error types whose Unwrap
// method mentions ErrTransient (directly or via a wrapped field) and
// whether the package declares the sentinel itself.
func (ip *Interproc) findTransientTypes(files []*ast.File) {
	ip.transientTypes = map[string]bool{}
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
							ip.hasTransientSentinel = true
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
							if t := ip.typeOf(sel); t != nil && isErrorType(t) {
								mentions = true
							}
						}
					}
					return !mentions
				})
				if mentions {
					if obj, _ := ip.info.Defs[d.Name].(*types.Func); obj != nil {
						if key := recvTypeName(obj); key != "" {
							ip.transientTypes["*"+ip.pkg.Name()+"."+key] = true
						}
					}
				}
			}
		}
	}
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

func (ip *Interproc) typeOf(e ast.Expr) types.Type {
	if tv, ok := ip.info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorIface) || types.Identical(t, errorIface)
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
	if t := w.ip.typeOf(s.X); t != nil {
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
		return
	}
	// A deferred cross-package releasing helper (NetReleases fact)
	// likewise covers its ids on every exit.
	if fn.Pkg() != nil && fn.Pkg().Path() != pkgPathOf(ip.pkg) && ip.moduleLocal(fn.Pkg().Path()) {
		if fact, ok := ip.unit.Facts.Func(fn.Pkg().Path(), funcKey(fn)); ok {
			for _, id := range fact.NetReleases {
				if h.markDeferred(id, true) {
					fi.releasedIDs[id] = true
				}
			}
		}
	}
}

// pkgPathOf is pkg.Path() tolerating nil.
func pkgPathOf(p *types.Package) string {
	if p == nil {
		return ""
	}
	return p.Path()
}

// claimPairs maps a claim-acquiring call name to its releasing
// counterpart. Claims are module-local paired calls with the semantics
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
	if !found || fn.Pkg() == nil || !ip.moduleLocal(fn.Pkg().Path()) {
		return "", "", false
	}
	id = fn.Pkg().Name() + "." + fn.Name() + "/" + rel
	return id, "claim " + id, true
}

// claimRelease reports whether fn releases a claim, returning the
// claim's canonical ID.
func (ip *Interproc) claimRelease(fn *types.Func) (string, bool) {
	if fn.Pkg() == nil || !ip.moduleLocal(fn.Pkg().Path()) {
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
	fi := &funcInfo{
		key:         "",
		display:     fmt.Sprintf("%s in %s", kind, parent.display),
		pseudo:      true,
		acquires:    map[string]bool{},
		retTypes:    map[string]bool{},
		releasedIDs: map[string]bool{},
		netReleases: map[string]bool{},
		claimNames:  map[string]string{},
	}
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

// walkCall classifies one call: mutex acquire/release, known standard-
// library blocking primitive, immediately-invoked literal, or a call
// to a (possibly module-local) named function.
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
	case ip.moduleLocal(path):
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
		// Then apply an imported acquire/release summary to the held
		// set: a cross-package helper that returns holding a lock
		// (NetAcquires) extends the caller's critical section past the
		// call; a releasing helper (NetReleases) closes it. After the
		// observation, not before: what the helper itself acquires is
		// not held while it is being called.
		if path != pkgPathOf(ip.pkg) {
			if fact, ok := ip.unit.Facts.Func(path, funcKey(fn)); ok {
				for _, id := range fact.NetAcquires {
					h.acquire(heldLock{id: id, exclusive: true})
				}
				for _, id := range fact.NetReleases {
					if h.release(id, true) {
						fi.releasedIDs[id] = true
					}
				}
			}
		}
	}
}

// moduleLocal reports whether path is in this module (facts exist or
// could exist for it). The module root is the first path element of
// this package's own path — "piql" — which also covers the package
// itself.
func (ip *Interproc) moduleLocal(path string) bool {
	if ip.pkg == nil {
		return false
	}
	self := ip.pkg.Path()
	root := self
	if i := strings.IndexByte(self, '/'); i >= 0 {
		root = self[:i]
	}
	// Fixture packages run under fake import paths; treat same-package
	// calls as module-local regardless.
	if path == self {
		return true
	}
	return path == root || strings.HasPrefix(path, root+"/")
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
	case "Unlock":
		if h.release(id, true) {
			fi.releasedIDs[id] = true
		} else {
			fi.netReleases[id] = true
		}
	case "RUnlock":
		if h.release(id, false) {
			fi.releasedIDs[id] = true
		} else {
			fi.netReleases[id] = true
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
			t := ip.typeOf(v.X)
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

// recordReturn classifies the error-position results of one return
// statement for the transient fixpoint.
func (ip *Interproc) recordReturn(fi *funcInfo, ret *ast.ReturnStmt) {
	if fi.decl == nil {
		return
	}
	obj, _ := ip.info.Defs[fi.decl.Name].(*types.Func)
	if obj == nil {
		return
	}
	sig := obj.Type().(*types.Signature)
	results := sig.Results()
	if results == nil {
		return
	}
	errIdx := map[int]bool{}
	for i := 0; i < results.Len(); i++ {
		if isErrorType(results.At(i).Type()) {
			errIdx[i] = true
		}
	}
	if len(errIdx) == 0 {
		return
	}
	if len(ret.Results) == 1 && results.Len() > 1 {
		// return f() forwarding a multi-result call
		if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
			ip.classifyErrExpr(fi, call, 0)
		}
		return
	}
	for i, e := range ret.Results {
		if errIdx[i] {
			ip.classifyErrExpr(fi, e, 0)
		}
	}
}

// classifyErrExpr records what an error-position expression can be:
// a typed error literal, the sentinel, a wrap, a forwarded call, or a
// local variable (traced through its assignments).
func (ip *Interproc) classifyErrExpr(fi *funcInfo, e ast.Expr, depth int) {
	if depth > 4 {
		return
	}
	e = ast.Unparen(e)
	switch v := e.(type) {
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			if cl, ok := v.X.(*ast.CompositeLit); ok {
				if name := ip.compositeTypeName(cl); name != "" {
					fi.retTypes["*"+name] = true
				}
			}
		}
	case *ast.CompositeLit:
		if name := ip.compositeTypeName(v); name != "" {
			fi.retTypes[name] = true
		}
	case *ast.Ident:
		if v.Name == "nil" {
			return
		}
		obj := ip.info.ObjectOf(v)
		if obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			if obj.Name() == "ErrTransient" {
				fi.retSentinel = true
			}
			return
		}
		// Local variable: every call assigned to it is a candidate
		// source (may-analysis; order does not matter).
		ip.traceLocalErrVar(fi, v.Name, depth)
	case *ast.SelectorExpr:
		if obj, ok := ip.info.Uses[v.Sel]; ok && obj.Name() == "ErrTransient" {
			fi.retSentinel = true
		}
	case *ast.CallExpr:
		fn := calleeOf(ip.info, v)
		if fn == nil || fn.Pkg() == nil {
			return
		}
		if fn.Pkg().Path() == "fmt" && fn.Name() == "Errorf" {
			if fmtWrapsError(v) {
				fi.retWrap = true
				for _, a := range v.Args[1:] {
					ip.classifyErrExpr(fi, a, depth+1)
				}
			}
			return
		}
		if ip.moduleLocal(fn.Pkg().Path()) {
			fi.retCallees = append(fi.retCallees, fn)
		}
	}
}

// compositeTypeName renders the qualified type name of a composite
// literal ("kvstore.ErrNodeDown"), or "" for anonymous types.
func (ip *Interproc) compositeTypeName(cl *ast.CompositeLit) string {
	t := ip.typeOf(cl)
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	pkgName := ip.pkg.Name()
	if named.Obj().Pkg() != nil {
		pkgName = named.Obj().Pkg().Name()
	}
	return pkgName + "." + named.Obj().Name()
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

// traceLocalErrVar unions in every call or literal assigned to a local
// variable anywhere in the function body.
func (ip *Interproc) traceLocalErrVar(fi *funcInfo, name string, depth int) {
	if fi.decl == nil || fi.decl.Body == nil {
		return
	}
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok2 := lhs.(*ast.Ident)
			if !ok2 || id.Name != name {
				continue
			}
			var rhs ast.Expr
			if len(as.Rhs) == len(as.Lhs) {
				rhs = as.Rhs[i]
			} else if len(as.Rhs) == 1 {
				rhs = as.Rhs[0]
			}
			if rhs != nil {
				ip.classifyErrExpr(fi, rhs, depth+1)
			}
		}
		return true
	})
}

// ---------------------------------------------------------------------
// Fixpoint.

// calleeFact resolves a callee's fixpoint summary: local functions from
// this package's in-progress state, module-local imports from the
// dependency facts. The bool reports whether anything is known.
func (ip *Interproc) calleeFact(fn *types.Func) (FuncFact, bool) {
	if fi, ok := ip.byObj[fn]; ok {
		return FuncFact{
			Blocks:      fi.mayBlock,
			BlockPath:   fi.blockPath,
			Acquires:    sortedKeys(fi.allAcquires),
			Transient:   fi.transient,
			ErrTypes:    sortedKeys(fi.allErrTypes),
			NetAcquires: fi.netAcquireIDs(),
			NetReleases: sortedKeys(fi.netReleases),
		}, true
	}
	if fn.Pkg() == nil {
		return FuncFact{}, false
	}
	return ip.unit.Facts.Func(fn.Pkg().Path(), funcKey(fn))
}

// calleeDisplay renders a callee for diagnostics: "kvstore.(*Client).Get".
func calleeDisplay(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Name() + "." + funcKey(fn)
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// fixpoint propagates blocks/acquires/transient through local calls
// until stable. Imported facts are fixed inputs, so termination is
// bounded by the finite lock-ID and error-type sets.
func (ip *Interproc) fixpoint() {
	for _, fi := range ip.funcs {
		fi.allAcquires = map[string]bool{}
		for id := range fi.acquires {
			fi.allAcquires[id] = true
		}
		fi.allErrTypes = map[string]bool{}
		for t := range fi.retTypes {
			fi.allErrTypes[t] = true
		}
		if len(fi.blocksDirect) > 0 {
			fi.mayBlock = true
			fi.blockPath = fi.blocksDirect[0].desc
		}
		if fi.retSentinel {
			fi.transient = true
			fi.transientVia = "returns ErrTransient"
		}
		for t := range fi.retTypes {
			if ip.transientTypes[t] {
				fi.transient = true
				fi.transientVia = "returns " + t
			}
		}
	}
	changed := true
	for changed {
		changed = false
		for _, fi := range ip.funcs {
			for _, c := range fi.calls {
				fact, ok := ip.calleeFact(c.fn)
				if !ok {
					continue
				}
				if fact.Blocks && !fi.mayBlock {
					fi.mayBlock = true
					fi.blockPath = calleeDisplay(c.fn)
					if fact.BlockPath != "" && len(fact.BlockPath) < 120 {
						fi.blockPath += " → " + fact.BlockPath
					}
					changed = true
				}
				for _, id := range fact.Acquires {
					if !fi.allAcquires[id] {
						fi.allAcquires[id] = true
						changed = true
					}
				}
			}
			for _, fn := range fi.retCallees {
				fact, ok := ip.calleeFact(fn)
				if !ok {
					continue
				}
				if fact.Transient && !fi.transient {
					fi.transient = true
					fi.transientVia = "forwards " + calleeDisplay(fn)
					changed = true
				}
				for _, t := range fact.ErrTypes {
					if !fi.allErrTypes[t] {
						fi.allErrTypes[t] = true
						changed = true
					}
				}
				// An error wrapped with %w stays transient if its
				// source was; unwrapped forwarding keeps types too —
				// both are unioned above.
			}
			// Typed errors whose types are transient make the function
			// transient (a callee may have introduced new types).
			if !fi.transient {
				for t := range fi.allErrTypes {
					if ip.transientTypes[t] {
						fi.transient = true
						fi.transientVia = "returns " + t
						changed = true
					}
				}
			}
		}
	}
}

// ---------------------------------------------------------------------
// Results.

// Facts exports this package's summaries for dependents: named
// functions with a non-empty summary, plus the package's lock edges
// (direct and call-derived).
func (ip *Interproc) Facts() *PackageFacts {
	pf := &PackageFacts{Funcs: map[string]FuncFact{}}
	for _, fi := range ip.funcs {
		if fi.pseudo {
			continue
		}
		f := FuncFact{
			Blocks:      fi.mayBlock,
			BlockPath:   fi.blockPath,
			Acquires:    sortedKeys(fi.allAcquires),
			Transient:   fi.transient,
			ErrTypes:    sortedKeys(fi.allErrTypes),
			NetAcquires: fi.netAcquireIDs(),
			NetReleases: sortedKeys(fi.netReleases),
		}
		if !f.Blocks && !f.Transient && len(f.Acquires) == 0 && len(f.ErrTypes) == 0 &&
			len(f.NetAcquires) == 0 && len(f.NetReleases) == 0 {
			continue
		}
		pf.Funcs[fi.key] = f
	}
	seen := map[[2]string]bool{}
	for _, e := range ip.allEdges() {
		k := [2]string{e.from, e.to}
		if seen[k] {
			continue
		}
		seen[k] = true
		pf.LockEdges = append(pf.LockEdges, LockEdge{
			From: e.from,
			To:   e.to,
			Pos:  ip.unit.Fset.Position(e.pos).String(),
		})
	}
	sort.Slice(pf.LockEdges, func(i, j int) bool {
		if pf.LockEdges[i].From != pf.LockEdges[j].From {
			return pf.LockEdges[i].From < pf.LockEdges[j].From
		}
		return pf.LockEdges[i].To < pf.LockEdges[j].To
	})
	return pf
}

// netAcquireIDs returns the mutex IDs this function returns holding on
// some exit without ever releasing them — the signature of an
// intentional acquire-helper (the cross-package half of releasepath).
// Early-return leaks (released on one path, held on another) are
// excluded: those are bugs, not contracts, and releasepath flags them.
func (fi *funcInfo) netAcquireIDs() []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range fi.exits {
		for _, l := range e.held {
			if l.kind != kindMutex || l.deferred || fi.releasedIDs[l.id] || seen[l.id] {
				continue
			}
			seen[l.id] = true
			out = append(out, l.id)
		}
	}
	sort.Strings(out)
	return out
}

// allEdges returns every local acquired-while-held edge: direct
// acquisitions plus call-derived ones (locks held at a call site ×
// locks the callee may acquire, per its summary or imported fact).
func (ip *Interproc) allEdges() []localEdge {
	var out []localEdge
	for _, fi := range ip.funcs {
		out = append(out, fi.edges...)
		for _, c := range fi.calls {
			heldIDs := (&held{locks: c.held}).ids()
			if len(heldIDs) == 0 {
				continue
			}
			fact, ok := ip.calleeFact(c.fn)
			if !ok {
				continue
			}
			for _, from := range heldIDs {
				for _, to := range fact.Acquires {
					out = append(out, localEdge{from: from, to: to, pos: c.pos})
				}
			}
		}
	}
	return out
}
