package lint

import (
	"sort"
	"strings"
)

// LockOrder proves deadlock-freedom of the mutex layer the way the
// planner proves op bounds: statically, before anything runs. The
// walk (interproc.go) records every acquired-while-held pair in one
// package — directly, and through the package's own calls via each
// callee's transitive acquire set — and this analyzer rejects any
// cycle in that graph. Locks are nodes by *class*
// (kvstore.Cluster.rebalanceMu, kvstore.move.mu, ...), so a cycle
// means two code paths can take the same two lock classes in opposite
// orders: a real interleaving away from a deadlock. A self-edge means
// two instances of one class nest; that is only safe under a global
// instance order, which the code must establish and a //lint:allow
// must cite.
//
// Checking one package at a time loses no cycle: Go's import graph is
// acyclic and no mutex in the tree is exported, so an edge between two
// packages only runs from importer to importee, and no path leads back.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "the acquired-while-held graph over each package's mutexes must stay acyclic",
	Run:  runLockOrder,
}

func runLockOrder(pass *Pass) {
	if pass.ip == nil {
		return
	}
	edges := pass.ip.allEdges()
	type edgeKey struct{ from, to string }
	succ := map[string]map[string]bool{}
	for _, e := range edges {
		if succ[e.from] == nil {
			succ[e.from] = map[string]bool{}
		}
		succ[e.from][e.to] = true
	}

	// Self-edges: instance nesting within one lock class.
	reportedSelf := map[string]bool{}
	for _, e := range edges {
		if e.from == e.to && !reportedSelf[e.from] {
			reportedSelf[e.from] = true
			pass.Reportf(e.pos,
				"lock %s acquired while another instance of %s is already held; instance nesting deadlocks unless every path takes instances in one global order",
				e.to, e.from)
		}
	}

	// Cross-class cycles: report each edge that sits on a cycle, with
	// the shortest return path as witness.
	reported := map[edgeKey]bool{}
	for _, e := range edges {
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
func shortestPath(succ map[string]map[string]bool, src, dst string) []string {
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
