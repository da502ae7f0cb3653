package lint

import (
	"sort"
	"strings"
)

// LockOrder proves deadlock-freedom of the mutex layer the way the
// planner proves op bounds: statically, before anything runs. The
// interprocedural walk (interproc.go) records every acquired-while-held
// pair — directly, and through calls via each callee's transitive
// acquire set, stitched across packages by the facts — and this
// analyzer rejects any cycle in that graph. Locks are nodes by *class*
// (kvstore.Cluster.rebalanceMu, kvstore.move.mu, ...), so a cycle
// means two code paths can take the same two lock classes in opposite
// orders: a real interleaving away from a deadlock. A self-edge means
// two instances of one class nest; that is only safe under a global
// instance order, which the code must establish and a //lint:allow
// must cite.
//
// The acyclic graph that survives is the lock hierarchy, printable
// with `piql-vet -lockgraph ./...` and documented in the README.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "the acquired-while-held graph over all mutexes must stay acyclic",
	Run:  runLockOrder,
}

func runLockOrder(pass *Pass) {
	if pass.ip == nil {
		return
	}
	local := pass.ip.allEdges()
	// The global graph: this package's edges plus every dependency's.
	type edgeKey struct{ from, to string }
	succ := map[string]map[string]string{} // from -> to -> witness pos
	addEdge := func(from, to, pos string) {
		if succ[from] == nil {
			succ[from] = map[string]string{}
		}
		if _, ok := succ[from][to]; !ok {
			succ[from][to] = pos
		}
	}
	for _, e := range local {
		addEdge(e.from, e.to, pass.Fset.Position(e.pos).String())
	}
	for _, e := range pass.unit.Facts.AllLockEdges(nil) {
		addEdge(e.From, e.To, e.Pos)
	}

	// Self-edges: instance nesting within one lock class.
	reportedSelf := map[string]bool{}
	for _, e := range local {
		if e.from == e.to && !reportedSelf[e.from] {
			reportedSelf[e.from] = true
			pass.Reportf(e.pos,
				"lock %s acquired while another instance of %s is already held; instance nesting deadlocks unless every path takes instances in one global order",
				e.to, e.from)
		}
	}

	// Cross-class cycles: report each local edge that sits on a cycle,
	// with the shortest return path as witness.
	reported := map[edgeKey]bool{}
	for _, e := range local {
		k := edgeKey{e.from, e.to}
		if e.from == e.to || reported[k] {
			continue
		}
		if path := shortestPath(succ, e.to, e.from); path != nil {
			reported[k] = true
			pass.Reportf(e.pos,
				"acquiring %s while holding %s creates a lock-order cycle: %s → %s; some other path acquires them in the opposite order",
				e.to, e.from, e.from, strings.Join(path, " → "))
		}
	}
}

// shortestPath returns the node sequence from src to dst (inclusive of
// both) following succ edges, or nil if unreachable. BFS, so the
// witness is minimal.
func shortestPath(succ map[string]map[string]string, src, dst string) []string {
	if src == dst {
		return []string{src}
	}
	prev := map[string]string{src: ""}
	queue := []string{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		// Deterministic order for stable diagnostics.
		var nexts []string
		for m := range succ[n] {
			nexts = append(nexts, m)
		}
		sort.Strings(nexts)
		for _, m := range nexts {
			if _, seen := prev[m]; seen {
				continue
			}
			prev[m] = n
			if m == dst {
				var path []string
				for at := dst; at != ""; at = prev[at] {
					path = append([]string{at}, path...)
				}
				return path
			}
			queue = append(queue, m)
		}
	}
	return nil
}

// LockHierarchy renders the global acquired-while-held graph as an
// indented forest in topological order: roots are locks never acquired
// while another is held. Cycle participants (if any survive to here)
// are listed flat at the end so the output stays total.
func LockHierarchy(edges []LockEdge) []string {
	succ := map[string][]string{}
	indeg := map[string]int{}
	nodes := map[string]bool{}
	for _, e := range edges {
		if e.From == e.To {
			continue
		}
		succ[e.From] = append(succ[e.From], e.To)
		indeg[e.To]++
		nodes[e.From] = true
		nodes[e.To] = true
	}
	var roots []string
	for n := range nodes {
		if indeg[n] == 0 {
			roots = append(roots, n)
		}
	}
	sort.Strings(roots)
	var out []string
	printed := map[string]bool{}
	var walk func(n string, depth int, onPath map[string]bool)
	walk = func(n string, depth int, onPath map[string]bool) {
		out = append(out, strings.Repeat("  ", depth)+n)
		printed[n] = true
		if onPath[n] {
			return
		}
		onPath[n] = true
		kids := append([]string(nil), succ[n]...)
		sort.Strings(kids)
		seen := map[string]bool{}
		for _, k := range kids {
			if !seen[k] {
				seen[k] = true
				walk(k, depth+1, onPath)
			}
		}
		delete(onPath, n)
	}
	for _, r := range roots {
		walk(r, 0, map[string]bool{})
	}
	var rest []string
	for n := range nodes {
		if !printed[n] {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	for _, n := range rest {
		out = append(out, n+" (cycle participant)")
	}
	return out
}
