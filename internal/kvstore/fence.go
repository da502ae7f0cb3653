package kvstore

import (
	"bytes"
	"fmt"
	"sort"
)

// Epoch fencing makes per-key conditional operations linearizable across
// routing changes. Every node holds a lease table: the key ranges it
// currently serves as the *authoritative primary* for conditional
// operations, each stamped with the minimum routing epoch a client may
// claim when asking the node to decide a test-and-set there. Rebalance
// installs the tables at the flip, while holding every move window, so:
//
//   - a node that lost a range rejects any later decision on it (no
//     covering lease), and a client still claiming the pre-flip table is
//     told its claim is stale — it retries under the fresh table;
//   - a node that gained a range only accepts claims at the flip epoch
//     or later, which route to it by construction;
//   - a range still covered by its primary's previous lease keeps that
//     lease's epoch, so steady-state conditional traffic is never
//     spuriously fenced by a rebalance that moved other ranges.
//
// Exactly one node can therefore ever accept a swap for a key, even
// while the key's ownership is mid-flight.
//
// Leases expire on the cluster's clock when their holder fails: a primary's
// authority is implicitly renewed while it is reachable and lapses
// Config.LeaseDuration after it crashes or partitions away. Rebalance
// reassigns (reclaims) an unreachable node's ranges only after that
// expiry (placeOwners), and a rejoining node's leases are re-derived
// from the current routing table (regrantLeases), so conditional-op
// authority is never held by two nodes at once — during the pre-expiry
// window the range's conditional ops stall (bounded by the client's
// fence retry budget) rather than failing over unsafely.

// ErrFenced reports a conditional operation rejected by per-node epoch
// fencing: under the routing epoch the operation claimed, the target
// node is not (or is no longer) the authoritative primary for the key.
// It is a routing-staleness signal, not a conflict — Client.TestAndSet
// retries under a fresh routing table and never returns it to callers,
// so a false TestAndSet result always means the test itself failed.
type ErrFenced struct {
	Node    int   // node that rejected the decision
	Claimed int64 // routing epoch the operation claimed
	Need    int64 // minimum epoch the node's lease requires
	Owner   bool  // whether the node holds any lease covering the key
}

func (e *ErrFenced) Error() string {
	if !e.Owner {
		return fmt.Sprintf("kvstore: node %d fenced conditional op (epoch %d): not the authoritative primary", e.Node, e.Claimed)
	}
	return fmt.Sprintf("kvstore: node %d fenced conditional op: claimed epoch %d < lease epoch %d", e.Node, e.Claimed, e.Need)
}

// Unwrap chains to ErrTransient: a fence reject is a retry signal, not
// a semantic failure.
func (e *ErrFenced) Unwrap() error { return ErrTransient }

// lease is one key range a node serves as authoritative primary for
// conditional operations. A conditional op must claim a routing epoch
// >= epoch for its decision to be accepted.
type lease struct {
	lo, hi []byte // [lo, hi); nil = unbounded on that side
	epoch  int64
}

// leaseTable is a node's immutable set of primary ranges, sorted by lo
// and disjoint. Nodes swap whole tables through an atomic pointer, so
// the conditional path's fencing check is an atomic load plus a binary
// search — never a lock shared with Rebalance.
type leaseTable struct {
	leases []lease
}

var emptyLeases = &leaseTable{}

// find returns the lease covering key, or nil.
func (lt *leaseTable) find(key []byte) *lease {
	// First lease whose upper bound lies beyond key; disjointness makes
	// it the only candidate.
	i := sort.Search(len(lt.leases), func(i int) bool {
		hi := lt.leases[i].hi
		return hi == nil || bytes.Compare(key, hi) < 0
	})
	if i == len(lt.leases) {
		return nil
	}
	l := &lt.leases[i]
	if l.lo != nil && bytes.Compare(key, l.lo) < 0 {
		return nil
	}
	return l
}

// containsRange reports whether the lease covers all of [lo, hi).
func (l *lease) containsRange(lo, hi []byte) bool {
	if l.lo != nil && (lo == nil || bytes.Compare(lo, l.lo) < 0) {
		return false
	}
	if l.hi != nil && (hi == nil || bytes.Compare(hi, l.hi) > 0) {
		return false
	}
	return true
}

// installLeases computes every node's primary ranges under rt and
// replaces the nodes' lease tables. Called by Rebalance at the flip,
// while every move window is held, so no conditional decision can be in
// flight on a moving range: decisions made before the install have
// finished propagating to the new owners, decisions after it are fenced.
//
// A partition whose primary already held a lease covering its whole
// range keeps that lease's epoch: the same node serialized every
// conditional op on those keys under the old table too (the old table
// routed them to it, or it would not have been leased), so accepting an
// older claim stays linearizable — the node's own mutex is the
// serialization point. Rebalance resamples split points every run, so
// requiring byte-identical bounds would bump almost every epoch and
// spuriously fence in-flight conditional ops on ranges that never
// changed hands; containment is the condition that actually matters.
func (c *Cluster) installLeases(rt *routing) {
	perNode := make([][]lease, len(c.nodes))
	for p := 0; p < rt.parts(); p++ {
		lo, hi := rt.bounds(p)
		primary := rt.owners[p][0]
		epoch := rt.epoch
		if prev := c.nodes[primary].leases.Load().find(lo); prev != nil && prev.containsRange(lo, hi) {
			epoch = prev.epoch
		}
		perNode[primary] = append(perNode[primary], lease{lo: lo, hi: hi, epoch: epoch})
	}
	for id, nd := range c.nodes {
		if len(perNode[id]) == 0 {
			nd.leases.Store(emptyLeases)
			continue
		}
		// Partitions are visited in ascending key order, so each node's
		// leases arrive already sorted by lo.
		nd.leases.Store(&leaseTable{leases: perNode[id]})
	}
}
