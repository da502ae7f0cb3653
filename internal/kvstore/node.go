package kvstore

import (
	"bytes"
	"sync"
	"sync/atomic"
	"time"

	"piql/internal/btree"
	"piql/internal/sim"
)

// node is one simulated storage server: an ordered in-memory record store
// plus a bounded-capacity request queue and a service-time sampler.
//
// Every value in the tree is a version envelope (see hlc.go): mutations
// go through applyIfNewer, which keeps whichever envelope carries the
// newest version, and deletes are versioned tombstones rather than
// removals — the pair of rules that makes replicas converge no matter
// what order writes arrive in. Reads strip the envelope and treat
// tombstones as absence.
type node struct {
	id int

	mu        sync.Mutex
	tree      *btree.Tree
	rng       rng           // service-time sampling; guarded by mu
	tombs     int           // live tombstone count; guarded by mu
	lastSweep time.Duration // clock reading at the last inline tombstone sweep; guarded by mu

	// clock is the cluster's one time source, shared by every node.
	clock *clock

	// hlc is this node's own hybrid logical clock. It observes the
	// timestamp of every envelope the node applies (observe-on-apply),
	// so a node that has seen a write can never issue a stamp that
	// loses to it — the property that keeps per-key ordering intact
	// when a replica is promoted to primary after a crash. Per-node
	// clocks replaced the original shared cluster clock when nodes
	// learned to fail: a crashed node's clock must not be consultable
	// by live traffic.
	hlc *HLC

	// down marks the node unreachable (killed/partitioned bits, see
	// failure.go). Clients check it before every contact; writes
	// targeting a down node queue as catch-ups instead. downSince is
	// the clock reading at the start of the outage — the lease-expiry
	// countdown — and is guarded by the cluster's faultMu.
	down      atomic.Int32
	downSince time.Duration

	// leases are the key ranges this node serves as authoritative primary
	// for conditional operations, installed by Rebalance at each flip
	// (see fence.go). Swapped whole through the atomic pointer, so the
	// fencing check never takes a lock Rebalance also needs.
	leases atomic.Pointer[leaseTable]

	queue *sim.Resource // request-processing capacity (nil in immediate mode)
}

// tombstoneSweepThreshold is how many tombstones a node accumulates
// before an apply triggers an inline sweep of the expired ones, bounding
// tombstone memory without a background task.
const tombstoneSweepThreshold = 4096

// nodeServers is each node's concurrent request capacity.
const nodeServers = 12

// tombstoneGCAge is the grace period before a delete's tombstone may be
// swept. It must exceed in-flight operation latency: sweeping a
// tombstone forgets the delete's version, so a write older than the
// delete that is still undelivered could resurrect the key.
const tombstoneGCAge = 5 * time.Second

func newNode(id int, seed int64, clk *clock) *node {
	n := &node{
		id:    id,
		tree:  btree.New(),
		rng:   seededRNG(uint64(seed), ^uint64(id)),
		clock: clk,
		hlc:   &HLC{},
	}
	n.leases.Store(emptyLeases)
	if clk.env != nil {
		n.queue = clk.env.NewResource(nodeServers)
	}
	return n
}

// stamp issues a write timestamp from the node's HLC at the cluster
// clock's current reading.
func (n *node) stamp() int64 { return n.hlc.Next(n.clock.now()) }

// KV is a key/value pair returned by range reads.
type KV struct {
	Key   []byte
	Value []byte
}

// --- storage primitives (no latency; callers add simulation cost) ---

// getRaw returns the stored envelope, tombstones included: the one point
// accessor. Callers strip it with live and read its version with
// envVersion.
func (n *node) getRaw(key []byte) ([]byte, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.tree.Get(key)
}

// applyIfNewer stores the envelope unless the node already holds a newer
// version for key, reporting whether it applied. This is the only write
// primitive: because the comparison is on versions, applying the same
// set of envelopes in any order on every replica yields the same final
// state — the convergence invariant.
func (n *node) applyIfNewer(key, env []byte) bool {
	// A malformed envelope is rejected rather than parsed by force: the
	// accessors below index into the header, so without this guard a
	// truncated envelope would crash the node mid-write. Every replica
	// makes the same decision, so convergence is unaffected.
	if _, _, _, err := parseEnvelope(env); err != nil {
		return false
	}
	// Observe-on-apply: after this envelope lands, every stamp this
	// node issues is strictly newer than it.
	n.hlc.Observe(envVersion(env).TS)
	n.mu.Lock()
	defer n.mu.Unlock()
	cur, ok := n.tree.Get(key)
	if ok && !envVersion(env).After(envVersion(cur)) {
		return false
	}
	n.storeLocked(key, env, cur, ok)
	return true
}

// storeLocked writes env over the current envelope (cur/ok from a prior
// Get), maintaining the tombstone count and triggering the inline sweep
// when tombstones pile up. The sweep is rate-limited to one per grace
// period of the cluster's clock per node: a delete burst inside one
// grace window has nothing collectible yet, and re-scanning the whole
// tree under mu on every further delete would turn the burst quadratic.
// Caller holds mu.
func (n *node) storeLocked(key, env, cur []byte, ok bool) {
	n.tree.Put(key, env)
	wasTomb := ok && envIsTombstone(cur)
	isTomb := envIsTombstone(env)
	if isTomb && !wasTomb {
		n.tombs++
		if n.tombs > tombstoneSweepThreshold {
			if now := n.clock.now(); now-n.lastSweep >= tombstoneGCAge {
				n.lastSweep = now
				n.sweepTombstonesLocked(hlcTime(now - tombstoneGCAge))
			}
		}
	} else if !isTomb && wasTomb {
		n.tombs--
	}
}

// purge hard-removes key, envelope and all. Only for data the node does
// not own (rebalance cleanup, rejoin's self-clean): purging an owned key
// would forget its version and let an older write still in flight
// resurrect it.
func (n *node) purge(key []byte) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	env, ok := n.tree.Get(key)
	if !ok {
		return false
	}
	if envIsTombstone(env) {
		n.tombs--
	}
	return n.tree.Delete(key)
}

// sweepTombstonesLocked removes tombstones stamped before cutoff,
// returning how many it collected. Caller holds mu.
//
// Dropping a tombstone forgets the delete's version, so the cutoff must
// be old enough that no yet-undelivered write could predate it — the
// grace period (tombstoneGCAge) has to exceed in-flight operation
// latency. That bounded-staleness window is the standard tombstone-GC
// tradeoff; within it, convergence is unconditional.
func (n *node) sweepTombstonesLocked(cutoff int64) int {
	var dead [][]byte
	n.tree.Ascend(nil, nil, func(it btree.Item) bool {
		if envIsTombstone(it.Value) && envVersion(it.Value).TS < cutoff {
			dead = append(dead, it.Key)
		}
		return true
	})
	for _, k := range dead {
		n.tree.Delete(k)
	}
	n.tombs -= len(dead)
	return len(dead)
}

// gcTombstones sweeps tombstones stamped before cutoff.
func (n *node) gcTombstones(cutoff int64) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sweepTombstonesLocked(cutoff)
}

// testAndSet atomically replaces the value under key with update when the
// current live value matches expect (nil expect means "key must be
// absent"). A nil update deletes the key on success. On acceptance it
// returns the envelope it stored — stamped from the node's own clock
// *after* reading the current value, so the accepted swap's version is
// newer
// than every write it observed and its propagation (applyIfNewer on
// replicas and move destinations) can never be clobbered by an older
// plain Put that happens to arrive later.
//
// The decision is epoch-fenced: it runs only when this node holds the
// authoritative-primary lease for key's range and the caller's claimed
// routing epoch is not stale for it. Otherwise the swap is not decided
// at all and a *ErrFenced is returned — the client retries under a
// fresh routing table. This is what keeps two racing swaps on the same
// key from both being accepted across a rebalance flip: the old primary
// is fenced before the new one's lease becomes reachable.
func (n *node) testAndSet(key []byte, claimedEpoch int64, expect, update []byte, client int64) ([]byte, bool, error) {
	if st := n.down.Load(); st != 0 {
		// A dead node decides nothing. Clients check reachability before
		// contact; this guard makes the refusal typed and node-side too.
		return nil, false, &ErrNodeDown{Node: n.id, Partitioned: st&nodePartitioned != 0}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	l := n.leases.Load().find(key)
	if l == nil {
		return nil, false, &ErrFenced{Node: n.id, Claimed: claimedEpoch}
	}
	if claimedEpoch < l.epoch {
		return nil, false, &ErrFenced{Node: n.id, Claimed: claimedEpoch, Need: l.epoch, Owner: true}
	}
	curEnv, ok := n.tree.Get(key)
	live := ok && !envIsTombstone(curEnv)
	if expect == nil {
		if live {
			return nil, false, nil
		}
	} else {
		if !live || !bytes.Equal(envValue(curEnv), expect) {
			return nil, false, nil
		}
	}
	ver := Version{TS: n.stamp(), Client: client}
	env := makeEnvelope(ver, update == nil, update)
	n.storeLocked(key, env, curEnv, ok)
	return env, true, nil
}

// scan appends to dst up to limit live items in [start, end), ascending
// or descending, envelopes stripped and tombstones skipped, and returns
// it. limit <= 0 means unlimited.
func (n *node) scan(dst []KV, start, end []byte, limit int, reverse bool) []KV {
	n.mu.Lock()
	defer n.mu.Unlock()
	from := len(dst)
	visit := func(it btree.Item) bool {
		if envIsTombstone(it.Value) {
			return true
		}
		dst = append(dst, KV{Key: it.Key, Value: envValue(it.Value)})
		return limit <= 0 || len(dst)-from < limit
	}
	if reverse {
		n.tree.Descend(start, end, visit)
	} else {
		n.tree.Ascend(start, end, visit)
	}
	return dst
}

// scanCap is the room a range read of limit items starts with. The cap
// is deliberate: a plan's limit is its static bound (a cardinality limit
// can be in the thousands) while the range typically holds a page of
// items. An unlimited read starts with none.
func scanCap(limit int) int {
	if limit <= 0 {
		return 0
	}
	return min(limit, 16)
}

// scanRaw returns up to limit stored envelopes in [start, end),
// tombstones included — the rebalance copy's view, which must carry
// versions (and deletions) to the destination nodes.
func (n *node) scanRaw(start, end []byte, limit int) []KV {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]KV, 0, scanCap(limit))
	n.tree.Ascend(start, end, func(it btree.Item) bool {
		out = append(out, KV{Key: it.Key, Value: it.Value})
		return limit <= 0 || len(out) < limit
	})
	return out
}

// count returns the number of live items in [start, end).
func (n *node) count(start, end []byte) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	n.tree.Ascend(start, end, func(it btree.Item) bool {
		if !envIsTombstone(it.Value) {
			total++
		}
		return true
	})
	return total
}

// size returns the number of live items the node stores.
func (n *node) size() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.tree.Len() - n.tombs
}

// sampleService draws a service time for a request (items tuples, payload
// bytes) under the node's current volatility.
func (n *node) sampleService(seed int64, now time.Duration, items, bytes int) time.Duration {
	n.mu.Lock()
	d := serviceTime(&n.rng, items, bytes)
	n.mu.Unlock()
	return time.Duration(float64(d) * volatility(seed, n.id, now))
}
