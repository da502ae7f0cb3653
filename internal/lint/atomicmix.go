package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicMix: a value obtained from an atomic Load is a published
// snapshot. Writing through it (directly, via locals, or via a helper's
// returned Load — the AtomicResults fact) mutates state other readers
// believe immutable. Copy-on-write is the contract: build a new value
// and Store it. Provenance is tracked by the dataflow core
// (dataflow.go) and stops at leaf data (ints, byte slices) and at
// sub-objects guarded by their own mutex, whose lock — not the atomic
// publication — governs their mutation.
//
// The targets in this tree: Cluster.routing, the node lease tables,
// and Engine's admission-policy and catalog pointers. (Copying or
// passing an atomic cell itself by value is go vet's copylocks.)
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc:  "values obtained from an atomic Load are copy-on-write: never written through in place",
	Run:  runAtomicMix,
}

// fieldIDOfSelection renders the canonical ID of a selected struct
// field — "<pkg>.<Struct>.<field>" — matching the lock-ID convention,
// so kvstore.Cluster.routing is one name everywhere.
func fieldIDOfSelection(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	v, _ := s.Obj().(*types.Var)
	if v == nil || v.Pkg() == nil {
		return "", false
	}
	t := s.Recv()
	for {
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
			continue
		}
		break
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", false
	}
	return v.Pkg().Name() + "." + named.Obj().Name() + "." + v.Name(), true
}

// atomicPrepass computes each function's AtomicResults summary and
// collects the plain-write-through-Load findings. Runs during
// buildInterproc so Facts() can export the summaries.
func (ip *Interproc) atomicPrepass() {
	// Per-function Load provenance. Two rounds: the first fills
	// every function's AtomicResults summary (so a same-package helper
	// seen before its caller still seeds the caller's taint in round
	// two), the second collects the plain-write findings with the
	// complete summaries. Helper-of-helper chains deeper than one
	// in-package level are not chased — cross-package chains are, via
	// the facts.
	for _, fi := range ip.funcs {
		if fi.pseudo || fi.decl == nil || fi.decl.Body == nil {
			continue
		}
		fi.atomicResults = map[string]bool{}
		ft := taintFunc(ip.info, fi.decl.Body, &atomicProv{ip: ip})
		funcReturns(fi.decl.Body, func(r *ast.ReturnStmt) {
			for _, res := range r.Results {
				if tag, ok := ft.exprTag(res); ok {
					fi.atomicResults[tag.id] = true
				}
			}
		})
	}
	for _, fi := range ip.funcs {
		if fi.pseudo || fi.decl == nil || fi.decl.Body == nil {
			continue
		}
		ft := taintFunc(ip.info, fi.decl.Body, &atomicProv{ip: ip})
		ip.atomicWriteFindings(fi, ft)
	}
}

// atomicProv is the provenance policy for atomic Loads: seeds at
// .Load() calls on atomic fields and at calls to helpers whose
// AtomicResults fact says they return a loaded value.
type atomicProv struct {
	ip *Interproc
}

func (p *atomicProv) seed(e ast.Expr) (provTag, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return provTag{}, false
	}
	fn := calleeOf(p.ip.info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || fn.Name() != "Load" {
		return provTag{}, false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return provTag{}, false // atomic.LoadT(&x) reads a word, not a snapshot
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return provTag{}, false
	}
	fieldSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return provTag{}, false
	}
	id, ok := fieldIDOfSelection(p.ip.info, fieldSel)
	if !ok {
		return provTag{}, false
	}
	return provTag{id: id, what: "loaded from atomic field " + id, pos: call.Pos()}, true
}

func (p *atomicProv) derive(tag provTag, t types.Type) (provTag, bool) {
	if leafValueType(t) || ownLockGuarded(t) {
		return tag, false
	}
	return tag, true
}

func (p *atomicProv) call(call *ast.CallExpr, fn *types.Func, recvTag, argTag *provTag) (provTag, bool) {
	if fn != nil && fn.Pkg() != nil && p.ip.moduleLocal(fn.Pkg().Path()) {
		// A helper that returns a loaded value: same-package via the
		// prepass summary, cross-package via the AtomicResults fact.
		if fi, ok := p.ip.byObj[fn]; ok && fi.atomicResults != nil {
			for id := range fi.atomicResults {
				return provTag{id: id, what: "loaded from atomic field " + id + " via " + fn.Name(), pos: call.Pos()}, true
			}
		}
		if fn.Pkg().Path() != pkgPathOf(p.ip.pkg) {
			if fact, ok := p.ip.unit.Facts.Func(fn.Pkg().Path(), funcKey(fn)); ok && len(fact.AtomicResults) > 0 {
				return provTag{
					id:   fact.AtomicResults[0],
					what: "loaded from atomic field " + fact.AtomicResults[0] + " via " + funcKey(fn) + " (per fact from " + fn.Pkg().Path() + ")",
					pos:  call.Pos(),
				}, true
			}
		}
	}
	// A method on a loaded value returns derived state (the engine
	// filters through derive per result type).
	if recvTag != nil {
		return *recvTag, true
	}
	return provTag{}, false
}

// atomicWriteFindings records the violations in one function:
// assignments and inc/dec through a projection of a loaded value.
func (ip *Interproc) atomicWriteFindings(fi *funcInfo, ft *funcTaint) {
	report := func(pos token.Pos, tag provTag) {
		ip.atomicFindings = append(ip.atomicFindings, provFinding{
			pos: pos,
			msg: "plain write through a value " + tag.what +
				" (Load at " + ip.shortPos(tag.pos) + "): atomically-published state is copy-on-write — build a new value and Store it",
		})
	}
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				root, projected := projectionRoot(lhs)
				if !projected || !sharedMemoryWrite(ip.info, lhs) {
					continue
				}
				if tag, ok := ft.exprTag(root); ok {
					report(s.Pos(), tag)
				}
			}
		case *ast.IncDecStmt:
			root, projected := projectionRoot(s.X)
			if !projected || !sharedMemoryWrite(ip.info, s.X) {
				return true
			}
			if tag, ok := ft.exprTag(root); ok {
				report(s.Pos(), tag)
			}
		}
		return true
	})
}

// projectionRoot strips selectors, indexes, slices, derefs, and parens
// off an lvalue, returning the base expression and whether at least
// one projection was stripped (a bare ident is a rebinding, not a
// write into the object).
func projectionRoot(e ast.Expr) (ast.Expr, bool) {
	projected := false
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e, projected = x.X, true
		case *ast.IndexExpr:
			e, projected = x.X, true
		case *ast.SliceExpr:
			e, projected = x.X, true
		case *ast.StarExpr:
			e, projected = x.X, true
		default:
			return e, projected
		}
	}
}

// ownLockGuarded reports whether t (or the struct it points to)
// carries its own sync.Mutex/RWMutex field: mutation of such a
// sub-object is governed by its lock, so atomic/snapshot provenance
// stops there (field-granularity, no alias analysis).
func ownLockGuarded(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if named, ok := st.Field(i).Type().(*types.Named); ok {
			if obj := named.Obj(); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
				switch obj.Name() {
				case "Mutex", "RWMutex":
					return true
				}
			}
		}
	}
	return false
}

func runAtomicMix(p *Pass) {
	if p.ip == nil {
		return
	}
	for _, fdg := range p.ip.atomicFindings {
		p.Reportf(fdg.pos, "%s", fdg.msg)
	}
}
