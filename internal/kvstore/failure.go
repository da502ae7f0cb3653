package kvstore

import (
	"errors"
	"fmt"
)

// Failure injection and recovery.
//
// The cluster models two real failure modes: a node crash (Kill /
// Restart) and a network partition (Partition / Heal). An unreachable
// node serves nothing — clients fail reads over to live replicas, and
// writes targeting it are queued as versioned catch-ups replayed when
// it rejoins (the HLC envelopes make replay order-free, so an
// acknowledged write is durable across the outage). Reclaiming an
// unreachable node's ranges is gated on lease expiry: a primary's
// conditional-op authority is implicitly renewed while it is
// reachable and lapses Config.LeaseDuration after it stops being so,
// which is when Rebalance may reassign its ranges (see placeOwners).

// ErrTransient is the sentinel every transient, retry-worthy kvstore
// error unwraps to. errors.Is(err, ErrTransient) is the one test a
// caller needs to separate "back off and try again" (node down, fenced,
// retry budget exhausted) from a semantic failure.
var ErrTransient = errors.New("kvstore: transient cluster condition")

// ErrNodeDown reports an operation that could not reach a required
// node: it is killed or partitioned away, and no live replica could
// absorb the work.
type ErrNodeDown struct {
	Node        int  // the unreachable node
	Partitioned bool // partitioned rather than crashed
}

func (e *ErrNodeDown) Error() string {
	how := "crashed"
	if e.Partitioned {
		how = "partitioned"
	}
	return fmt.Sprintf("kvstore: node %d unreachable (%s)", e.Node, how)
}

func (e *ErrNodeDown) Unwrap() error { return ErrTransient }

// ErrFenceExhausted reports a bounded retry loop that ran out of
// budget: every attempt was fenced or found the authoritative primary
// unreachable, or, for a write, found the routing table changed under
// it. No decision was made — the caller may safely retry the
// whole operation later (a lease expiry plus Rebalance reclaim, or a
// node restart, unwedges it). Last preserves the final attempt's cause.
type ErrFenceExhausted struct {
	Op       string // "testandset" or "write"
	Attempts int
	// Last is the final attempt's cause: *ErrFenced or *ErrNodeDown from
	// TestAndSet, ErrTransient from Apply (routing churn has no per-node
	// cause).
	Last error
}

func (e *ErrFenceExhausted) Error() string {
	return fmt.Sprintf("kvstore: %s retry budget exhausted after %d attempts: %v", e.Op, e.Attempts, e.Last)
}

func (e *ErrFenceExhausted) Unwrap() error {
	if e.Last == nil {
		return ErrTransient
	}
	return e.Last
}

// Node down-state bits (node.down).
const (
	nodeKilled      int32 = 1 << iota // crashed; comes back via Restart
	nodePartitioned                   // unreachable; comes back via Heal
)

// catchUp is one write queued for an unreachable node: the full version
// envelope, so replay is a plain applyIfNewer and commutes with
// everything that happened during the outage.
type catchUp struct {
	key, env []byte
}

// Kill crashes node id: every operation routed to it fails over or
// queues until Restart. Its stored data survives (the storage model is
// durable), but any lease authority lapses Config.LeaseDuration later,
// allowing Rebalance to reclaim its ranges.
func (c *Cluster) Kill(id int) { c.markDown(id, nodeKilled) }

// Restart brings a killed node back: queued catch-ups are replayed,
// everything it holds for ranges it no longer owns is purged, then the
// node rejoins the serving set and its primary leases are re-granted
// from the current routing table.
func (c *Cluster) Restart(id int) { c.rejoin(id, nodeKilled) }

// Partition cuts the cluster: groups[0] is the side that keeps client
// connectivity; every node not in groups[0] becomes unreachable until
// Heal. (With one group, it names the connected majority.)
func (c *Cluster) Partition(groups ...[]int) {
	if len(groups) == 0 {
		return
	}
	connected := make(map[int]bool, len(groups[0]))
	for _, id := range groups[0] {
		connected[id] = true
	}
	for id := range c.nodes {
		if !connected[id] {
			c.markDown(id, nodePartitioned)
		}
	}
}

// Heal reconnects every partitioned node, replaying its queued
// catch-ups and re-granting its leases (see Restart).
func (c *Cluster) Heal() {
	for id, nd := range c.nodes {
		if nd.down.Load()&nodePartitioned != 0 {
			c.rejoin(id, nodePartitioned)
		}
	}
}

// NodeDown reports whether node id is currently killed or partitioned.
func (c *Cluster) NodeDown(id int) bool { return !c.reachable(id) }

// reachable reports whether node id can serve requests. Hot-path check:
// one atomic load, never a lock.
func (c *Cluster) reachable(id int) bool { return c.nodes[id].down.Load() == 0 }

// markDown makes node id unreachable. downSince, read from the
// cluster's clock, starts the lease-expiry countdown on the first bit
// set.
func (c *Cluster) markDown(id int, bit int32) {
	c.faultMu.Lock()
	defer c.faultMu.Unlock()
	nd := c.nodes[id]
	if nd.down.Load() == 0 {
		nd.downSince = c.clock.now()
	}
	nd.down.Store(nd.down.Load() | bit)
}

// reclaimableLocked reports whether node id's ranges may be reassigned
// by Rebalance: it has been unreachable for at least the lease
// duration, so the conditional-op authority it held has lapsed (no
// in-flight decision can exist on it) and its ranges can safely move
// to live nodes. A node that is down but unexpired keeps its ranges —
// they stall rather than fail over, which is the lease-safety window.
// Caller holds faultMu.
func (c *Cluster) reclaimableLocked(id int) bool {
	nd := c.nodes[id]
	return nd.down.Load() != 0 && c.clock.now()-nd.downSince >= c.cfg.LeaseDuration
}

// downErr builds the typed error for the first unreachable node among
// ids (falling back to ids[0] if a racing rejoin cleared them all).
func (c *Cluster) downErr(ids []int) error {
	for _, id := range ids {
		if st := c.nodes[id].down.Load(); st != 0 {
			return &ErrNodeDown{Node: id, Partitioned: st&nodePartitioned != 0}
		}
	}
	return &ErrNodeDown{Node: ids[0]}
}

// applyOrQueue lands one envelope on node id, or queues it as a
// versioned catch-up when the node is unreachable. Every remote write
// path goes through it, so an acknowledged write is never lost to an
// outage: it either applied, or it replays at rejoin.
func (c *Cluster) applyOrQueue(id int, key, env []byte) {
	if c.reachable(id) {
		c.nodes[id].applyIfNewer(key, env)
		return
	}
	c.queueCatchUp(id, key, env)
}

// queueCatchUp queues (key, env) for replay when node id rejoins. It
// re-checks reachability under faultMu: rejoin drains the queue and
// clears the down marker under the same lock, so a racing write either
// lands in a queue rejoin will drain, or observes the node reachable
// and applies directly — never neither.
func (c *Cluster) queueCatchUp(id int, key, env []byte) {
	c.faultMu.Lock()
	queued := c.nodes[id].down.Load() != 0
	if queued {
		c.pending[id] = append(c.pending[id], catchUp{key: key, env: env})
	}
	c.faultMu.Unlock()
	if queued {
		c.cuQueued.Add(1)
		return
	}
	c.nodes[id].applyIfNewer(key, env)
}

// rejoin clears one down bit on node id and, when that makes the node
// reachable again, replays its queued catch-ups, purges data it no
// longer owns, and re-grants its primary leases from the current
// routing table. It runs under rebalanceMu so the lease re-grant and
// self-cleanup cannot interleave with a concurrent Rebalance; in a
// simulated run, call Restart and Heal only from the process that
// rebalances, which holds rebalanceMu across its yields.
//
// The drain loop holds faultMu for the take-and-clear: a concurrent
// writer either queued before a take (and is replayed) or sees the
// node reachable after the final clear (and applies directly), so no
// acknowledged write can slip between replay and rejoin.
//
//lint:allow routingclaim
func (c *Cluster) rejoin(id int, clearBit int32) {
	c.rebalanceMu.Lock()
	defer c.rebalanceMu.Unlock()
	nd := c.nodes[id]
	c.faultMu.Lock()
	rest := nd.down.Load() &^ clearBit
	if rest != 0 {
		// Still unreachable for another reason (e.g. killed and
		// partitioned): drop this bit only; the final clear replays.
		nd.down.Store(rest)
	}
	c.faultMu.Unlock()
	if rest != 0 {
		return
	}
	for {
		c.faultMu.Lock()
		queued := c.pending[id]
		if len(queued) == 0 {
			nd.down.Store(0)
		} else {
			c.pending[id] = nil
		}
		c.faultMu.Unlock()
		if len(queued) == 0 {
			break
		}
		c.replayOn(id, queued)
	}
	// Self-clean: purge every range the node no longer owns (disown,
	// which rebalance's cleanup runs too) — catch-ups replayed for
	// ranges moved away during the outage, and what the rebalance
	// cleanups that ran meanwhile could not reach. Stale non-owned
	// envelopes must never survive to a future rebalance that re-places
	// the range here. This is the one place rejoin enforces ownership,
	// and it costs what leaves the node, not a walk of all it holds.
	rt := c.routing.Load()
	c.disown(id, rt)
	c.regrantLeases(id, rt)
}

// replayOn applies queued catch-ups to node id, every one of them:
// versioned envelopes make replay order-free, and what lands for a
// range the node lost while down is purged by rejoin's self-clean
// after the last replay (no read routes to a non-owner, and rejoin
// holds rebalanceMu, so no Rebalance can re-place the range on it
// first).
func (c *Cluster) replayOn(id int, queued []catchUp) {
	for _, cu := range queued {
		c.nodes[id].applyIfNewer(cu.key, cu.env)
	}
	c.cuReplayed.Add(int64(len(queued)))
}

// regrantLeases restores node id's primary leases from the current
// routing table after a rejoin. Safe: while the node was unreachable no
// conditional op could reach it, and a range reclaimed during the
// outage is simply no longer in rt.owners, so the node gets no lease
// there and fences any straggler. Caller holds rebalanceMu (the lease
// writer's lock).
func (c *Cluster) regrantLeases(id int, rt *routing) {
	var leases []lease
	for p := 0; p < rt.parts(); p++ {
		if rt.owners[p][0] != id {
			continue
		}
		lo, hi := rt.bounds(p)
		leases = append(leases, lease{lo: lo, hi: hi, epoch: rt.epoch})
	}
	if len(leases) == 0 {
		c.nodes[id].leases.Store(emptyLeases)
		return
	}
	c.nodes[id].leases.Store(&leaseTable{leases: leases})
}

// CatchUpsQueued returns how many writes have been queued for
// unreachable nodes since the cluster was created.
func (c *Cluster) CatchUpsQueued() int64 { return c.cuQueued.Load() }

// CatchUpsReplayed returns how many queued catch-ups have been
// replayed onto rejoined nodes: every replayed envelope counts,
// including those for ranges the node lost while down, which rejoin
// then purges.
func (c *Cluster) CatchUpsReplayed() int64 { return c.cuReplayed.Load() }
