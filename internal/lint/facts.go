package lint

import "sort"

// Cross-package facts.
//
// The interprocedural analyzers (lockorder, holdblock, releasepath,
// errtaxonomy) need to know things about functions in *other*
// packages: does (*kvstore.Client).Get park the simulated
// process? which locks does (*Cluster).Rebalance end up acquiring? can
// (*Client).TestAndSet return an error that unwraps to
// kvstore.ErrTransient? Those summaries are computed once per package
// (see interproc.go) and kept in a FactStore the driver threads through
// the packages in dependency order. Only module-local packages carry
// facts; the behavior of the few standard-library blocking primitives
// is hardcoded in the analyzers instead of analyzed.

// FuncFact is one function's externally visible summary. Functions are
// keyed the way they read at a call site: "FuncName" for package
// functions, "(Type).Method" / "(*Type).Method" for methods.
type FuncFact struct {
	// Blocks reports that calling the function may block the goroutine
	// (or park the simulated process): a channel operation, a
	// sync.Cond/WaitGroup wait, a time.Sleep, or a call to something
	// that does — transitively.
	Blocks bool
	// BlockPath is a human-readable witness for Blocks: the call chain
	// from this function to the primitive that blocks.
	BlockPath string
	// Acquires lists the canonical lock IDs (see interproc.go) the
	// function may acquire, directly or transitively.
	Acquires []string
	// Transient reports that the function may return an error that
	// unwraps to the package's ErrTransient sentinel (or to a typed
	// error that does).
	Transient bool
	// ErrTypes lists the typed errors the function can return, e.g.
	// "*kvstore.ErrNodeDown".
	ErrTypes []string
	// NetAcquires lists the canonical lock IDs the function returns
	// holding on some exit without ever releasing — an intentional
	// acquire-helper contract. A dependent's walk extends its held set
	// across calls to such helpers, so releasepath and holdblock see
	// cross-package critical sections.
	NetAcquires []string
	// NetReleases lists the lock IDs the function releases without a
	// matching acquisition of its own — the releasing half of a
	// cross-package helper pair.
	NetReleases []string
}

// LockEdge is one acquired-while-held observation: To was acquired at
// Pos while From was held. Edges are exported so a dependent package
// can stitch its own acquisitions into the global lock graph and catch
// cycles that span packages.
type LockEdge struct {
	From string
	To   string
	// Pos is the acquisition site, as file:line (the exporting unit's
	// file positions).
	Pos string
}

// PackageFacts is everything one package exports to its dependents.
type PackageFacts struct {
	Funcs map[string]FuncFact
	// LockEdges are the package's acquired-while-held observations.
	LockEdges []LockEdge
}

// FactStore holds the facts of every dependency package, keyed by
// import path.
type FactStore struct {
	pkgs map[string]*PackageFacts
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{pkgs: map[string]*PackageFacts{}}
}

// Add records one package's facts. nil facts are ignored.
func (s *FactStore) Add(path string, f *PackageFacts) {
	if f != nil {
		s.pkgs[path] = f
	}
}

// Pkg returns one package's facts, or nil.
func (s *FactStore) Pkg(path string) *PackageFacts {
	if s == nil {
		return nil
	}
	return s.pkgs[path]
}

// Func looks up one function's fact by package path and key.
func (s *FactStore) Func(path, key string) (FuncFact, bool) {
	p := s.Pkg(path)
	if p == nil {
		return FuncFact{}, false
	}
	f, ok := p.Funcs[key]
	return f, ok
}

// AllLockEdges returns every lock edge in the store plus extra, deduped
// by (From, To) with the first position kept, sorted for determinism.
func (s *FactStore) AllLockEdges(extra []LockEdge) []LockEdge {
	seen := map[[2]string]LockEdge{}
	add := func(e LockEdge) {
		k := [2]string{e.From, e.To}
		if _, ok := seen[k]; !ok {
			seen[k] = e
		}
	}
	// Local edges first so their positions win for reporting.
	for _, e := range extra {
		add(e)
	}
	if s != nil {
		var paths []string
		for p := range s.pkgs {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			for _, e := range s.pkgs[p].LockEdges {
				add(e)
			}
		}
	}
	out := make([]LockEdge, 0, len(seen))
	for _, e := range seen {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}
