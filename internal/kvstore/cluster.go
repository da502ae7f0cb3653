// Package kvstore simulates the distributed key/value store PIQL runs on
// (SCADS in the paper): a range-partitioned, replicated, ordered store
// with get/put/test-and-set, range and count-range reads, and predictable
// per-operation latency independent of total database size. Writes
// reach every replica synchronously; a read is served by one replica
// per partition.
//
// The cluster can run in two modes:
//
//   - immediate mode (no sim.Env): operations execute instantly — used by
//     unit tests, examples, and bulk loading;
//   - simulated mode (with a sim.Env): every operation pays a sampled
//     network round trip and queues for the target node's service
//     capacity in virtual time — used by the experiment harness.
//
// Either way a cluster reads one clock (see clock): the HLC, the lease
// countdown and the tombstone sweep all take their time from it, so a
// simulated run never depends on the wall clock.
package kvstore

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"piql/internal/codec"
	"piql/internal/sim"
)

// Config describes a cluster. Every write reaches every owner of its
// key synchronously; the latency model (latency.go), each node's request
// capacity and the tombstone grace period are the package's own.
type Config struct {
	// Nodes is the number of storage servers.
	Nodes int
	// ReplicationFactor is how many nodes hold each item (paper: 2).
	ReplicationFactor int
	// Seed drives all randomness (latency sampling, replica choice).
	Seed int64
	// MoveChunkKeys bounds how many keys Rebalance copies per scan
	// chunk, keeping the copy's memory footprint independent of
	// partition size. 0 means DefaultMoveChunkKeys.
	MoveChunkKeys int
	// LeaseDuration is how long an unreachable node's ranges stay
	// assigned to it (measured on the cluster's clock from the moment
	// it went down) before Rebalance may reclaim them. It is the primary
	// lease's expiry: while a primary is reachable its authority is
	// implicitly renewed; once it crashes or partitions away, its
	// conditional-op authority lapses after this long. 0 means
	// DefaultLeaseDuration.
	LeaseDuration time.Duration
}

// DefaultMoveChunkKeys is the per-chunk key budget of a rebalance copy
// when Config.MoveChunkKeys is zero.
const DefaultMoveChunkKeys = 256

// DefaultLeaseDuration is the unreachable-primary lease expiry when
// Config.LeaseDuration is zero.
const DefaultLeaseDuration = time.Second

// Cluster is a simulated SCADS-style key/value store. It is safe for
// concurrent use by any number of Clients: node record stores are
// mutex-guarded, the op counters are atomic, and the partition map is an
// epoch-stamped routing table behind an atomic pointer. Rebalance models
// the SCADS Director's live repartitioning and runs concurrently with
// traffic: ranges are copied while writers double-write to old and new
// owners, then the routing epoch flips (see Rebalance).
type Cluster struct {
	cfg   Config
	clock clock
	nodes []*node

	// routing is the current epoch-stamped partition map. Operations
	// claim a snapshot for their duration (beginOp/endOp) so Rebalance
	// can tell when a retired table has drained before it deletes moved
	// ranges from their former owners.
	routing atomic.Pointer[routing]

	// rebalanceMu serializes concurrent Rebalance calls (moves of one
	// rebalance must finish before the next recomputes the layout).
	rebalanceMu sync.Mutex

	ops       atomic.Int64 // total storage operations served
	fenced    atomic.Int64 // conditional decisions rejected by epoch fencing
	clientSeq atomic.Int64

	// faultMu guards the failure-injection state: each node's downSince
	// reading and the queued catch-up writes for unreachable nodes
	// (see failure.go). The hot-path reachability check is the node's
	// atomic down word and never takes it. Lock order: rebalanceMu
	// before faultMu.
	faultMu sync.Mutex
	pending [][]catchUp // per-node writes queued while unreachable

	cuQueued   atomic.Int64
	cuReplayed atomic.Int64

	// chunkHook, when set (tests only), runs after each non-final chunk
	// of a move lands, with the cursor the next chunk will start from.
	chunkHook func(mv *move, nextCursor []byte)
}

// routing is one immutable epoch of the partition map: partition i owns
// [splits[i-1], splits[i]). While a rebalance is copying data, moves
// carries the in-flight range transfers so writers can double-write.
type routing struct {
	epoch  int64
	splits [][]byte // len parts-1
	owners [][]int  // per-partition replica sets, primary first (len parts)
	moves  []*move  // disjoint ranges being copied to new owners

	// active counts operations currently executing against this table.
	// Rebalance drains it (after publishing a successor) before deleting
	// moved ranges from their old owners, so no in-flight operation ever
	// reads or writes a wiped range.
	active atomic.Int64
}

// move is one in-flight range transfer [lo, hi) to the nodes in dst.
// Writers that observe it double-write (via applyIfNewer, so arrival
// order against the copy is irrelevant — versions decide). The copy
// itself needs no per-key coordination: it replays the source's
// envelopes, tombstones included, and a concurrent writer's fresher
// envelope outranks them wherever they land. mu serializes only the
// conditional path: a TestAndSet on the range decides and propagates
// entirely under mu, and the epoch flip takes mu on every move, so the
// lease handover can never interleave with a half-propagated swap.
type move struct {
	lo, hi []byte // nil = unbounded on that side
	dst    []int

	mu sync.Mutex
}

// covers reports whether key falls inside the move's range.
func (m *move) covers(key []byte) bool {
	if m.lo != nil && bytes.Compare(key, m.lo) < 0 {
		return false
	}
	if m.hi != nil && bytes.Compare(key, m.hi) >= 0 {
		return false
	}
	return true
}

// partitionOf returns the index of the partition owning key.
func (rt *routing) partitionOf(key []byte) int {
	// splits[i] is the lower bound of partition i+1.
	return sort.Search(len(rt.splits), func(i int) bool {
		return bytes.Compare(key, rt.splits[i]) < 0
	})
}

// parts returns the number of partitions.
func (rt *routing) parts() int { return len(rt.splits) + 1 }

// isOwner reports whether node id holds partition p under this table.
func (rt *routing) isOwner(p, id int) bool {
	return slices.Contains(rt.owners[p], id)
}

// bounds returns partition p's key range (nil = unbounded side).
func (rt *routing) bounds(p int) (lo, hi []byte) {
	if p > 0 {
		lo = rt.splits[p-1]
	}
	if p < len(rt.splits) {
		hi = rt.splits[p]
	}
	return lo, hi
}

// rangeParts returns the inclusive window [lo, hi] of partitions whose
// key range intersects [start, end). nil start/end leave that side
// unbounded. An empty range still yields a one-partition window so range
// operations always visit (and account) at least one node.
func (rt *routing) rangeParts(start, end []byte) (lo, hi int) {
	lo, hi = 0, len(rt.splits)
	if start != nil {
		lo = rt.partitionOf(start)
	}
	if end != nil {
		// hi = largest partition whose lower bound splits[hi-1] < end.
		hi = sort.Search(len(rt.splits), func(i int) bool {
			return bytes.Compare(rt.splits[i], end) >= 0
		})
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// New creates a cluster. env may be nil for immediate (zero-latency) mode.
func New(cfg Config, env *sim.Env) *Cluster {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.ReplicationFactor <= 0 {
		cfg.ReplicationFactor = 1
	}
	if cfg.ReplicationFactor > cfg.Nodes {
		cfg.ReplicationFactor = cfg.Nodes
	}
	if cfg.MoveChunkKeys <= 0 {
		cfg.MoveChunkKeys = DefaultMoveChunkKeys
	}
	if cfg.LeaseDuration <= 0 {
		cfg.LeaseDuration = DefaultLeaseDuration
	}
	c := &Cluster{cfg: cfg, clock: clock{env: env, born: time.Now()}}
	for i := 0; i < cfg.Nodes; i++ {
		c.nodes = append(c.nodes, newNode(i, cfg.Seed, &c.clock))
	}
	c.pending = make([][]catchUp, cfg.Nodes)
	// epoch 0: one partition, all keys on node 0's replicas.
	rt := &routing{owners: [][]int{c.placeOwners(0)}}
	c.installLeases(rt)
	c.routing.Store(rt)
	return c
}

// beginOp claims the current routing table for one operation. The claim
// is revalidated after the increment so a concurrent Rebalance that
// published a successor in between cannot observe a drained table while
// this operation still intends to use it.
func (c *Cluster) beginOp() *routing {
	for {
		rt := c.routing.Load()
		rt.active.Add(1)
		if c.routing.Load() == rt {
			return rt
		}
		rt.active.Add(-1)
	}
}

// endOp releases an operation's claim on its routing table.
func (c *Cluster) endOp(rt *routing) { rt.active.Add(-1) }

// drain waits until no operation still holds the retired table. Only
// called by rebalance, after a successor table is published, so the wait
// is bounded by in-flight operation latency. A simulated rebalancer
// (proc non-nil) yields its process between polls: the holders are
// parked processes that need the scheduler's token to finish.
func (c *Cluster) drain(rt *routing, proc *sim.Proc) {
	for rt.active.Load() > 0 {
		yield(proc)
	}
}

// yield is one poll's pause: proc parks until the next pending event,
// or, with proc nil, the goroutine yields its thread.
func yield(proc *sim.Proc) {
	if proc != nil {
		proc.Yield()
	} else {
		runtime.Gosched()
	}
}

// NumNodes returns the number of storage nodes.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// TotalOps returns the cumulative count of storage operations served,
// summed over all clients. The harness uses it for throughput accounting.
func (c *Cluster) TotalOps() int64 { return c.ops.Load() }

// FenceRejects returns how many conditional decisions nodes have
// rejected through epoch fencing since the cluster was created. Each
// reject corresponds to one client-side retry under a fresher routing
// table — it is the observable footprint of the linearizable handover,
// not an error count.
func (c *Cluster) FenceRejects() int64 { return c.fenced.Load() }

// TotalItems returns the number of stored items summed over nodes
// (replicas counted separately).
func (c *Cluster) TotalItems() int {
	total := 0
	for _, n := range c.nodes {
		total += n.size()
	}
	return total
}

// replicaNodes returns the node IDs the placement rule prefers for
// partition p, primary first (replica r of partition p is node (p+r)
// mod n). It is the liveness-blind preference order; actual ownership
// is the routing table's owners, computed by placeOwners at each
// rebalance.
func (c *Cluster) replicaNodes(p int) []int {
	ids := make([]int, 0, c.cfg.ReplicationFactor)
	for r := 0; r < c.cfg.ReplicationFactor; r++ {
		ids = append(ids, (p+r)%len(c.nodes))
	}
	return ids
}

// placeOwners computes partition p's replica set, primary first: the
// arithmetic placement preference, skipping nodes whose lease has
// expired while unreachable (reclaim — see reclaimableLocked). A node
// that is down but unexpired keeps its ranges: operations on them
// stall or queue rather than failing over prematurely, which is the
// lease-safety window that keeps conditional ops on exactly one
// primary. If every node is reclaimable the arithmetic set stands (a
// fully-dead cluster has no better answer).
func (c *Cluster) placeOwners(p int) []int {
	c.faultMu.Lock()
	defer c.faultMu.Unlock()
	n := len(c.nodes)
	owners := make([]int, 0, c.cfg.ReplicationFactor)
	for r := 0; r < n && len(owners) < c.cfg.ReplicationFactor; r++ {
		id := (p + r) % n
		if c.reclaimableLocked(id) {
			continue
		}
		owners = append(owners, id)
	}
	if len(owners) == 0 {
		return c.replicaNodes(p)
	}
	return owners
}

// maxClock returns the newest timestamp any node's clock has issued or
// observed.
func (c *Cluster) maxClock() int64 {
	var m int64
	for _, nd := range c.nodes {
		if v := nd.hlc.last.Load(); v > m {
			m = v
		}
	}
	return m
}

// barrierStamp issues a timestamp strictly newer than every stamp any
// node has issued so far and makes every node observe it, so every
// stamp drawn after it returns is strictly newer still. It is the
// control-plane stamp for snapshot barriers (Client.StampVersion, used
// by the index backfill): a real deployment would run a timestamp-
// exchange round; the simulation reads every clock directly. A write
// in flight while the barrier runs may still carry an older stamp —
// barrier callers drain in-flight writers before acting on the stamp,
// which is exactly what the backfill protocol does.
func (c *Cluster) barrierStamp() int64 {
	var m int64
	for _, nd := range c.nodes {
		if t := nd.stamp(); t > m {
			m = t
		}
	}
	for _, nd := range c.nodes {
		nd.hlc.Observe(m)
	}
	return m
}

// Rebalance recomputes partition split points so that data is spread
// evenly over nodes, then moves ranges to their new owners. No split
// falls strictly inside a key group (codec.GroupLen: a namespace and its
// leading key component): each sampled split is rounded down to the
// start of its group, so a range pinned by equality on the leading
// component — the one the static bound books at one operation — lies in
// one partition. Bytes that are not a codec key split where they were
// sampled. It models
// the SCADS Director's live repartitioning and is safe to run under
// concurrent read/write traffic:
//
//  1. it publishes an intermediate routing table (epoch+1) carrying the
//     planned moves — from that moment every write to a moving range
//     double-writes to the old and new owners — and drains operations
//     still holding the pre-move table, so every write the copy could
//     miss has landed on the old owners before any copy scan starts;
//  2. it copies each moving range from the old primaries into the new
//     owners in bounded chunks (see copyMove), replaying the source's
//     version envelopes — tombstones included — with put-if-newer, so a
//     concurrent writer's fresher value (or delete) always wins no
//     matter how the copy interleaves with it;
//  3. it flips the epoch (epoch+2) while holding every move window:
//     new primary leases are installed first (epoch fencing — a
//     conditional op still claiming the old table is rejected by the
//     old primary and retries under the new one), then the new table is
//     published, routing reads and writes to the new owners, which hold
//     the complete range;
//  4. it drains operations still using the retired move table, then
//     deletes moved ranges from nodes that no longer own them.
//
// Reads never fail mid-move: until the flip they are served by the old
// owners, which remain complete; after the flip by the new owners, which
// the copy plus double-writes have made complete. Concurrent Rebalance
// calls serialize among themselves.
//
// Rebalance runs with no simulated process, so its drains spin on the
// OS scheduler; under a simulated workload, rebalance from a process
// with Client.Rebalance instead.
func (c *Cluster) Rebalance() { c.rebalance(nil) }

// Rebalance is Cluster.Rebalance run by the client's simulated process:
// its drains and each chunk of its copy yield the process, so the
// workload it rebalances under keeps running in virtual time. In
// immediate mode it is Cluster.Rebalance.
func (cl *Client) Rebalance() { cl.c.rebalance(cl.proc) }

// rebalance is the writer of the routing pointer — it serializes
// against other rebalances via rebalanceMu and quiesces claimed
// snapshots itself, so it never claims one. rebalanceMu is the one
// store lock held across a park (proc's yields), so in a simulated run
// only the rebalancing process may take it: rebalance, Restart, Heal.
//
//lint:allow routingclaim
func (c *Cluster) rebalance(proc *sim.Proc) {
	c.rebalanceMu.Lock()
	defer c.rebalanceMu.Unlock()
	old := c.routing.Load()

	// Sample the key distribution from each partition's primary replica
	// (or the first live owner when the primary is down): count each
	// partition's live keys, clipped to the partition's own range so
	// replica-held data of neighboring partitions is not double-counted,
	// then walk again only as far as the n−1 quantile keys of their
	// concatenation, which is globally sorted: the partitions are
	// disjoint, ascending ranges.
	n := len(c.nodes)
	srcs := make([]int, old.parts())
	counts := make([]int, old.parts())
	total := 0
	for p := range srcs {
		lo, hi := old.bounds(p)
		if srcs[p] = c.liveOwner(old, p); srcs[p] >= 0 {
			counts[p] = c.nodes[srcs[p]].count(lo, hi)
		} // else the whole replica set is unreachable; sample what we can
		total += counts[p]
	}
	at := make([]int, 0, n-1) // each quantile's position among the sampled keys
	for i := 1; i < n && total > 0; i++ {
		at = append(at, min(i*total/n, total-1))
	}
	keys := make([][]byte, 0, len(at))
	for p, base := 0, 0; p < len(srcs) && len(at) > 0; p++ {
		if end := base + counts[p]; srcs[p] >= 0 && at[0] < end {
			lo, hi := old.bounds(p)
			picked := len(keys)
			keys = c.nodes[srcs[p]].liveKeysAt(keys, lo, hi, base, at)
			at = at[len(keys)-picked:]
		}
		base += counts[p]
	}

	// A split equal to the one before it is dropped: every sample inside
	// one group rounds to the group's start, and the group stays whole.
	splits := make([][]byte, 0, n-1)
	for _, split := range keys {
		if g, ok := codec.GroupLen(split); ok {
			split = split[:g:g]
		}
		if len(splits) > 0 && bytes.Equal(split, splits[len(splits)-1]) {
			continue
		}
		splits = append(splits, split)
	}
	next := &routing{epoch: old.epoch + 2, splits: splits}
	next.owners = make([][]int, next.parts())
	for p := 0; p < next.parts(); p++ {
		next.owners[p] = c.placeOwners(p)
	}

	// Plan one move per new partition whose ownership actually changes,
	// and publish the intermediate table: same splits and owners as
	// before, but writers now double-write into the new layout. A new
	// partition contained in a single old partition with the identical
	// owner set needs no move — its owners already hold the complete
	// range — so stable ranges pay neither copy nor double-writes. (A
	// reclaim after a node death changes the owner set, so the range
	// moves even when the split points did not.)
	moves := make([]*move, 0, next.parts())
	for p := 0; p < next.parts(); p++ {
		lo, hi := next.bounds(p)
		oplo, ophi := old.rangeParts(lo, hi)
		if oplo == ophi && slices.Equal(next.owners[p], old.owners[oplo]) {
			continue
		}
		moves = append(moves, &move{lo: lo, hi: hi, dst: next.owners[p]})
	}
	mid := &routing{epoch: old.epoch + 1, splits: old.splits, owners: old.owners, moves: moves}
	c.routing.Store(mid)

	// Drain the pre-move table before any copy scan starts. An operation
	// that claimed it cannot see the moves, so its writes reach only the
	// old owners — in particular, a conditional write accepted on an old
	// primary just before the publish would be invisible to a copy scan
	// that had already passed its key, and so invisible to the new
	// primary at the flip (a lost accepted swap). Waiting here makes the
	// copy's source snapshot complete with respect to every pre-publish
	// operation; everything after double-writes through the move.
	c.drain(old, proc)

	for _, mv := range moves {
		c.copyMove(old, mv, proc)
	}

	// Flip while holding every move window: no conditional decision can
	// be mid-propagation, so installing the new primary leases first and
	// then publishing the table hands authority over atomically — the
	// old primary fences any straggler claiming a retired epoch.
	// move.mu instances nest only here, in the moves-slice order, and
	// Rebalance (the one function that ever holds two) is serialized by
	// rebalanceMu: a single global instance order, so no opposing
	// acquisition can exist.
	for _, mv := range moves {
		//lint:allow releasepath — every move window is held across the flip below and released by the second loop over the same moves slice; a section spread over two loops is not one block.
		mv.mu.Lock()
	}
	c.installLeases(next)
	c.routing.Store(next)
	for _, mv := range moves {
		mv.mu.Unlock()
	}

	// Retire the move table: once no operation holds it, no read can
	// touch a former owner, and the moved ranges can be deleted.
	c.drain(mid, proc)
	c.cleanup(next)
}

// copyMove copies one move's range from the old layout's primaries into
// the destinations, one bounded chunk at a time. The scan is raw — it
// reads version envelopes, tombstones included — and each item lands
// with applyIfNewer, so the copy commutes with every concurrent write:
// a writer's fresher put or delete outranks the copied envelope whether
// it arrives before or after it, and a copied tombstone carries the
// deletion to destinations the writer's own double-apply missed. The
// chunk bound (Config.MoveChunkKeys) only limits the scan's memory; no
// chunk needs coordination with writers. Every chunk is scanned into
// one buffer, which the destinations' puts do not keep. A simulated
// rebalancer yields after each chunk.
func (c *Cluster) copyMove(old *routing, mv *move, proc *sim.Proc) {
	chunk := c.cfg.MoveChunkKeys
	var kvs []KV
	plo, phi := old.rangeParts(mv.lo, mv.hi)
	for p := plo; p <= phi; p++ {
		// Copy from the primary, or the first live owner when it is
		// down (put-if-newer tolerates a stale source: anything it is
		// missing arrives later by catch-up replay or double-write).
		src := c.liveOwner(old, p)
		if src < 0 {
			continue // whole replica set unreachable; nothing to copy from
		}
		cursor, end := clip(old, p, mv.lo, mv.hi)
		for {
			kvs = c.nodes[src].scanRaw(kvs[:0], cursor, end, chunk)
			for _, kv := range kvs {
				for _, id := range mv.dst {
					c.applyOrQueue(id, kv.Key, kv.Value)
				}
			}
			if proc != nil {
				proc.Yield()
			}
			if len(kvs) < chunk {
				break
			}
			cursor = append(append([]byte{}, kvs[len(kvs)-1].Key...), 0x00)
			if c.chunkHook != nil {
				c.chunkHook(mv, cursor)
			}
		}
	}
}

// liveOwner returns partition p's first reachable owner under rt
// (preferring the primary), or -1 when the whole replica set is
// unreachable.
func (c *Cluster) liveOwner(rt *routing, p int) int {
	for _, id := range rt.owners[p] {
		if c.reachable(id) {
			return id
		}
	}
	return -1
}

// cleanup purges, from every reachable node, each range the node does
// not own under rt (disown). Concurrent writes are safe: a write routed
// by rt only lands on owners, which cleanup never touches for that key's
// range. Purging (rather than tombstoning) is correct precisely because
// the node is not an owner — no read routes to it, and a later rebalance
// copies from owners, never from it.
func (c *Cluster) cleanup(rt *routing) {
	for id := range c.nodes {
		if !c.reachable(id) {
			// An unreachable node can't be purged remotely; rejoin runs
			// the same purge for it before it serves again.
			continue
		}
		c.disown(id, rt)
	}
}

// disown removes from node id every key of the ranges it does not own
// under rt: each run of consecutive partitions it does not own is one
// range, removed with one directory range delete (node.purgeRange),
// which drops a namespace lying wholly inside the range without
// visiting its keys and deletes the keys of a namespace the range cuts.
// So it costs what leaves the node, plus a search per range and per cut
// namespace, not a walk of everything the node holds. Rebalance's
// cleanup and rejoin's self-clean both run it.
func (c *Cluster) disown(id int, rt *routing) {
	for p := 0; p < rt.parts(); p++ {
		if rt.isOwner(p, id) {
			continue
		}
		lo, _ := rt.bounds(p)
		for p+1 < rt.parts() && !rt.isOwner(p+1, id) {
			p++
		}
		_, hi := rt.bounds(p)
		c.nodes[id].purgeRange(lo, hi)
	}
}

// GCTombstones force-sweeps every delete tombstone from every node,
// returning how many were collected. That is only safe on a quiesced
// cluster (no write in flight): a sweep forgets the deletes' versions,
// so an undelivered older write could otherwise resurrect a key. Nodes
// also sweep tombstones past the grace period inline once they
// accumulate past a threshold, so unbounded tombstone growth never
// depends on this call.
func (c *Cluster) GCTombstones() int {
	cutoff := c.maxClock() + 1
	total := 0
	for _, nd := range c.nodes {
		total += nd.gcTombstones(cutoff)
	}
	return total
}

// AuditConvergence verifies the store's convergence invariant: for every
// partition, all replicas hold byte-identical live state — same keys,
// same value bytes, same versions (a tombstone and a swept/absent key
// are equivalent, both meaning "deleted"). It is meaningful on a
// quiesced cluster (writers joined, every node rejoined); the chaos
// harness runs it after every storm. Returns nil when converged. Its
// error is deliberately fatal (it does not unwrap to ErrTransient):
// replicas that diverged after quiescence are a bug, not a transient
// condition, and re-running the audit cannot help and must not hide it.
// It audits a quiesced cluster — no rebalance can run concurrently, so
// there is no snapshot lifecycle to join.
//
//lint:allow routingclaim
func (c *Cluster) AuditConvergence() error {
	rt := c.routing.Load()
	for p := 0; p < rt.parts(); p++ {
		lo, hi := rt.bounds(p)
		ids := rt.owners[p]
		ref := make(map[string][]byte)
		for _, kv := range c.nodes[ids[0]].scanRaw(nil, lo, hi, 0) {
			if !envIsTombstone(kv.Value) {
				ref[string(kv.Key)] = kv.Value
			}
		}
		for _, id := range ids[1:] {
			live := 0
			for _, kv := range c.nodes[id].scanRaw(nil, lo, hi, 0) {
				if envIsTombstone(kv.Value) {
					continue
				}
				live++
				want, ok := ref[string(kv.Key)]
				if !ok {
					return fmt.Errorf("kvstore: divergence on %q: live %q@%+v on node %d, deleted/absent on primary %d",
						kv.Key, envValue(kv.Value), envVersion(kv.Value), id, ids[0])
				}
				if !bytes.Equal(want, kv.Value) {
					return fmt.Errorf("kvstore: divergence on %q: node %d holds %q@%+v, primary %d holds %q@%+v",
						kv.Key, id, envValue(kv.Value), envVersion(kv.Value), ids[0], envValue(want), envVersion(want))
				}
			}
			if live != len(ref) {
				for k := range ref {
					if env, _ := c.nodes[id].getRaw([]byte(k)); env == nil || envIsTombstone(env) {
						return fmt.Errorf("kvstore: divergence on %q: live on primary %d, deleted/absent on node %d",
							k, ids[0], id)
					}
				}
			}
		}
	}
	return nil
}

// Epoch returns the current routing epoch. It advances by two per
// rebalance (one for the move-in-progress table, one for the flip).
// A single immutable-field read for test observability; the value is
// stale the moment it returns either way.
//
//lint:allow routingclaim
func (c *Cluster) Epoch() int64 { return c.routing.Load().epoch }

// Splits returns a copy of the current partition split points.
// A single immutable-field read for test observability; split slices
// are never mutated after publication.
//
//lint:allow routingclaim
func (c *Cluster) Splits() [][]byte {
	splits := c.routing.Load().splits
	out := make([][]byte, len(splits))
	copy(out, splits)
	return out
}

func (c *Cluster) String() string {
	return fmt.Sprintf("kvstore.Cluster{nodes: %d, rf: %d, items: %d}",
		len(c.nodes), c.cfg.ReplicationFactor, c.TotalItems())
}
