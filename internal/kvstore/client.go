package kvstore

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"piql/internal/sim"
)

// Client is a per-process handle to the cluster. In simulated mode each
// operation advances the owning process's virtual clock by a network
// round trip plus queueing and service time at the target node; in
// immediate mode operations are instantaneous.
//
// A Client is not safe for concurrent use — its op counter and RNG are
// unsynchronized by design, keeping the per-operation hot path free of
// atomics. Spawn one Client per goroutine/session; the Cluster behind
// them is safe for any number of concurrent Clients, including while it
// rebalances. Parallel gives each simulated branch a child of its own
// (one allocation: the generator is a value inside the struct) and runs
// immediate-mode branches on the caller itself.
//
// Every operation claims one routing-table snapshot for its duration.
// Reads route through the snapshot (old owners keep serving a range
// until its move completes, so reads never fail mid-rebalance). Writes
// additionally double-write to the destinations of any in-flight move
// covering their key, and re-apply themselves if the routing table
// changed while they ran — the pair of rules that guarantees a rebalance
// loses no concurrent write.
type Client struct {
	c    *Cluster
	proc *sim.Proc // nil in immediate mode
	rng  rng       // replica choice + RTT sampling
	id   int64     // cluster-unique; the version tiebreaker on writes

	ops          int64 // operations issued through this client (and its children)
	fenceRetries int64 // conditional ops retried after an epoch-fencing reject
	parent       *Client

	// readQuorum > 1 makes plain Get (and MultiGet) read through
	// GetQuorum with that R — staleness-bounded reads, threaded from
	// piql.Config.ReadQuorum.
	readQuorum int

	// lastErr is the first degraded-operation error recorded since the
	// last TakeErr — the sticky-error channel that lets the unchanged
	// Get/Put/... signatures surface *ErrNodeDown and friends to the
	// engine at operation boundaries. Recorded on the chain's root
	// client (see noteErr); single-goroutine like the rest of Client.
	lastErr error

	// Scratch reused across operations to keep the per-request hot path
	// allocation-lean. Safe because a Client is single-goroutine and the
	// scratch is only read (never written) while Parallel children run.
	byNode map[int][]int // multiGet: unique-key indexes grouped by node
	ids    []int         // multiGet: deterministic node order
	order  []int         // multiGet: key indexes sorted for deduplication
	dups   []int         // multiGet: flattened (dup, first) index pairs
	subs   []*Client     // fanOut goroutine children, reused across calls
}

// NewClient creates a client. proc may be nil for immediate mode.
func (c *Cluster) NewClient(proc *sim.Proc) *Client {
	seq := c.clientSeq.Add(1)
	return &Client{
		c:    c,
		proc: proc,
		rng:  seededRNG(uint64(c.cfg.Seed), uint64(seq)),
		id:   seq,
	}
}

// SetReadQuorum makes this client's Get and MultiGet read R replicas
// per key through GetQuorum (newest version wins, stale replicas are
// read-repaired). r <= 1 restores plain single-replica reads.
func (cl *Client) SetReadQuorum(r int) { cl.readQuorum = r }

// noteErr records a degraded-operation error on this chain's root
// client. The first error wins (it is usually the root cause); TakeErr
// clears it. Recording on the root lets Parallel children surface
// through their parent; fanOut goroutine children are detached and
// merged after the join instead.
func (cl *Client) noteErr(err error) {
	r := cl
	for r.parent != nil {
		r = r.parent
	}
	if r.lastErr == nil {
		r.lastErr = err
	}
}

// TakeErr returns and clears the first degraded-operation error
// recorded since the last call. Read and write methods keep their
// plain signatures — a failed read returns absence, a write to a dead
// replica queues a catch-up — and anything that actually degraded the
// result (no reachable replica, quorum short, retry budget exhausted)
// lands here as a typed, errors.Is/As-able error. Callers that care
// (the engine's executor) drain it at operation boundaries.
func (cl *Client) TakeErr() error {
	e := cl.lastErr
	cl.lastErr = nil
	return e
}

// Ops returns the number of storage operations issued through this client
// since creation (including operations issued by Parallel children).
func (cl *Client) Ops() int64 { return cl.ops }

// ResetOps zeroes the operation counter and returns the previous value.
func (cl *Client) ResetOps() int64 {
	v := cl.ops
	cl.ops = 0
	return v
}

// Simulated reports whether the client runs on a virtual-time process.
// Simulated clients are cooperative — one process runs at a time — so
// code holding the scheduler token must never block on channels or
// locks another simulated process needs to make progress.
func (cl *Client) Simulated() bool { return cl.proc != nil }

// Yield parks the simulated process until the next pending event,
// letting every other runnable process advance before it resumes — the
// cooperative scheduler's runtime.Gosched. It is how simulated code
// waits for a condition another process must establish (e.g. the index
// backfill's writer drain) without blocking on a channel or lock while
// holding the scheduler token. No-op in immediate mode.
func (cl *Client) Yield() {
	if cl.proc != nil {
		cl.proc.Yield()
	}
}

// Now returns the process's virtual time, or 0 in immediate mode.
func (cl *Client) Now() time.Duration {
	if cl.proc == nil {
		return 0
	}
	return cl.proc.Now()
}

// countOp attributes one storage operation to this client chain.
func (cl *Client) countOp() {
	cl.c.ops.Add(1)
	for p := cl; p != nil; p = p.parent {
		p.ops++
	}
}

// visit pays the simulated cost of one request to node id: half an RTT
// out, queueing + service at the node, half an RTT (plus payload
// transfer) back. In immediate mode it is free.
func (cl *Client) visit(id int, items, payloadBytes int) {
	cl.countOp()
	if cl.proc == nil {
		return
	}
	cfg := cl.c.cfg.Latency
	rtt := cfg.rtt(&cl.rng)
	cl.proc.Sleep(rtt / 2)
	n := cl.c.nodes[id]
	service := n.sampleService(cfg, cl.c.cfg.Seed, cl.proc.Now(), items, payloadBytes)
	n.queue.Use(cl.proc, service)
	cl.proc.Sleep(rtt - rtt/2)
}

// readRetryAttempts bounds how many backoff rounds a read spends
// waiting for any replica of its partition to become reachable before
// giving up with a typed error.
const readRetryAttempts = 3

// pickReplica picks the serving replica for partition p: a uniform
// choice over the partition's owners, failing over to the next live
// owner when the chosen one is unreachable. When every owner is
// unreachable it retries with backoff a bounded number of times (a
// restart may be in flight) before giving up with -1. With failover
// disabled (Cluster.SetFailover(false), the chaos falsification knob)
// the uniform choice is final: an unreachable pick is an immediate -1.
func (cl *Client) pickReplica(rt *routing, p int) int {
	owners := rt.owners[p]
	for attempt := 0; ; attempt++ {
		r := cl.rng.intn(len(owners))
		if id := owners[r]; cl.c.reachable(id) {
			return id
		}
		if !cl.c.failover() {
			return -1
		}
		for i := 1; i < len(owners); i++ {
			if id := owners[(r+i)%len(owners)]; cl.c.reachable(id) {
				return id
			}
		}
		if attempt >= readRetryAttempts {
			return -1
		}
		cl.backoff(attempt)
	}
}

// backoff yields between retries: a virtual-time sleep in simulated
// mode (cooperative processes must never spin), a scheduler yield in
// immediate mode (wall-clock sleeps are forbidden in sim-linked
// packages, and a restart is typically a few scheduler quanta away —
// callers that need to outwait a real outage retry at their own level).
func (cl *Client) backoff(attempt int) {
	if cl.proc != nil {
		cl.proc.Sleep(time.Duration(attempt+1) * time.Millisecond)
		return
	}
	runtime.Gosched()
}

// Get returns the value under key, or (nil, false). The read goes to
// one replica chosen uniformly, failing over to a live replica when the
// chosen one is down; a deleted key (versioned tombstone) reads as
// absent. When no replica is reachable the read degrades to absence and
// records a *ErrNodeDown for TakeErr. With a read quorum configured
// (SetReadQuorum) the read goes through GetQuorum instead.
func (cl *Client) Get(key []byte) ([]byte, bool) {
	if cl.readQuorum > 1 {
		v, ok, err := cl.GetQuorum(key, cl.readQuorum)
		if err != nil {
			cl.noteErr(err)
		}
		return v, ok
	}
	rt := cl.c.beginOp()
	defer cl.c.endOp(rt)
	p := rt.partitionOf(key)
	id := cl.pickReplica(rt, p)
	if id < 0 {
		cl.noteErr(cl.c.downErr(rt.owners[p]))
		return nil, false
	}
	v, ok := cl.c.nodes[id].get(key)
	cl.visit(id, 1, len(v))
	return v, ok
}

// GetQuorum reads key from r distinct replicas, returns the value with
// the newest version among them, and read-repairs any replica observed
// stale (in the background in simulated mode). In this store an
// acknowledged write reaches every reachable owner synchronously, so at
// most the currently-unreachable (or recently recovered, not yet
// caught-up) replicas can be stale: while at most r-1 replicas are in
// that state, a quorum read never returns a value older than the last
// acknowledged write — the R/N staleness bound (R=1 is a plain
// uniform read and carries no bound). Returns *ErrNodeDown when fewer
// than r owners are reachable; the read made no decision and may be
// retried.
func (cl *Client) GetQuorum(key []byte, r int) ([]byte, bool, error) {
	rt := cl.c.beginOp()
	defer cl.c.endOp(rt)
	p := rt.partitionOf(key)
	owners := rt.owners[p]
	if r < 1 {
		r = 1
	}
	if r > len(owners) {
		r = len(owners)
	}
	// Gather r reachable owners starting from a uniform offset, so
	// quorum reads spread load across replicas like plain reads do.
	picked := make([]int, 0, r)
	off := cl.rng.intn(len(owners))
	for i := 0; i < len(owners) && len(picked) < r; i++ {
		if id := owners[(off+i)%len(owners)]; cl.c.reachable(id) {
			picked = append(picked, id)
		}
	}
	if len(picked) < r {
		return nil, false, cl.c.downErr(owners)
	}
	var best []byte
	stale := false
	missing := 0
	for _, id := range picked {
		env, ok := cl.c.nodes[id].getRaw(key)
		cl.visit(id, 1, len(env))
		if !ok {
			missing++
			continue
		}
		if best == nil {
			best = env
			continue
		}
		if envVersion(env).After(envVersion(best)) {
			best = env
			stale = true
		} else if envVersion(best).After(envVersion(env)) {
			stale = true
		}
	}
	if best != nil && (stale || missing > 0 || len(picked) < len(owners)) {
		cl.repairReplicas(owners, key, best)
	}
	if best == nil || envIsTombstone(best) {
		return nil, false, nil
	}
	return envValue(best), true, nil
}

// repairReplicas converges every reachable owner onto the winning
// envelope — inline in immediate mode, as a background process in
// simulated mode (the quorum read's latency should not include the
// repair round).
func (cl *Client) repairReplicas(owners []int, key, env []byte) {
	if cl.proc != nil {
		c := cl.c
		cl.proc.Env().Spawn(func(*sim.Proc) {
			for _, id := range owners {
				if c.reachable(id) {
					c.nodes[id].applyIfNewer(key, env)
				}
			}
		})
		return
	}
	for _, id := range owners {
		if cl.c.reachable(id) {
			cl.c.nodes[id].applyIfNewer(key, env)
		}
	}
}

// GetVersionedPrimary is Get plus the stored version, routed to the
// key's authoritative primary instead of a uniformly-chosen replica. A
// deleted key reports its tombstone's version with ok=false; a
// never-written key reports the zero Version. The primary receives
// every write synchronously — replica catch-ups lag only the
// non-primary copies — so this read observes the newest version even
// under AsyncReplication; invariant checks (the index builder's ghost
// assertion) use it to avoid mistaking a lagged replica for a
// violation.
func (cl *Client) GetVersionedPrimary(key []byte) ([]byte, Version, bool) {
	rt := cl.c.beginOp()
	defer cl.c.endOp(rt)
	p := rt.partitionOf(key)
	id := rt.owners[p][0]
	if !cl.c.reachable(id) {
		cl.noteErr(cl.c.downErr(rt.owners[p]))
		return nil, Version{}, false
	}
	v, ver, ok := cl.c.nodes[id].getVersioned(key)
	cl.visit(id, 1, len(v))
	return v, ver, ok
}

// ReadRepair reads every reachable replica of key, converges any
// replica observed stale onto the newest version (applying the winning
// envelope with put-if-newer), and returns the winner's value. It is
// the on-demand repair path for read-heavy keys under async
// replication: a caller that just observed a stale or flip-flopping
// read can force the replicas together without waiting for the
// replication lag to drain. Unreachable replicas are skipped — the
// read still succeeds from the live ones, and the skipped replicas are
// brought back together by catch-up replay when they rejoin (or by a
// later ReadRepair once they have). Only when no replica at all is
// reachable does the read fail, recording a *ErrNodeDown for TakeErr.
func (cl *Client) ReadRepair(key []byte) ([]byte, bool) {
	rt := cl.c.beginOp()
	defer cl.c.endOp(rt)
	p := rt.partitionOf(key)
	owners := rt.owners[p]
	var best []byte
	read := 0
	for _, id := range owners {
		if !cl.c.reachable(id) {
			continue
		}
		env, ok := cl.c.nodes[id].getRaw(key)
		cl.visit(id, 1, len(env))
		read++
		if ok && (best == nil || envVersion(env).After(envVersion(best))) {
			best = env
		}
	}
	if read == 0 {
		cl.noteErr(cl.c.downErr(owners))
		return nil, false
	}
	if best == nil {
		return nil, false
	}
	for _, id := range owners {
		if !cl.c.reachable(id) {
			continue
		}
		if cl.c.nodes[id].applyIfNewer(key, best) {
			cl.visit(id, 1, len(best))
		}
	}
	if envIsTombstone(best) {
		return nil, false
	}
	return envValue(best), true
}

// MultiGet fetches several keys in one batched request per node, with
// the per-node requests issued in parallel — the Parallel executor's
// fast path. Repeated keys are deduplicated (fetched once, fanned out to
// every requesting position). Missing keys yield nil entries.
func (cl *Client) MultiGet(keys [][]byte) [][]byte {
	return cl.multiGet(keys, true)
}

// MultiGetSeq is MultiGet with the per-node batches issued one after
// another — the Simple executor's behavior: batching without
// intra-operator parallelism.
func (cl *Client) MultiGetSeq(keys [][]byte) [][]byte {
	return cl.multiGet(keys, false)
}

func (cl *Client) multiGet(keys [][]byte, parallel bool) [][]byte {
	out := make([][]byte, len(keys))
	if len(keys) == 0 {
		return out
	}
	if cl.readQuorum > 1 {
		// Quorum mode trades the per-node batching for the staleness
		// bound: each key is a quorum read (R visits).
		for i, k := range keys {
			v, ok, err := cl.GetQuorum(k, cl.readQuorum)
			if err != nil {
				cl.noteErr(err)
				continue
			}
			if ok {
				out[i] = v
			}
		}
		return out
	}
	rt := cl.c.beginOp()
	defer cl.c.endOp(rt)
	if len(keys) == 1 {
		// Point-lookup fast path: no grouping or dedup scratch.
		p := rt.partitionOf(keys[0])
		id := cl.pickReplica(rt, p)
		if id < 0 {
			cl.noteErr(cl.c.downErr(rt.owners[p]))
			return out
		}
		v, ok := cl.c.nodes[id].get(keys[0])
		payload := 0
		if ok {
			out[0] = v
			payload = len(v)
		}
		cl.visit(id, 1, payload)
		return out
	}
	// Deduplicate repeated keys — FK joins re-fetch the same parent
	// record constantly — by sorting the key indexes and aliasing runs of
	// equal keys to their first occurrence. Sort-based so dedup needs no
	// per-key string allocation; all scratch is reused across calls.
	cl.order = cl.order[:0]
	for i := range keys {
		cl.order = append(cl.order, i)
	}
	slices.SortFunc(cl.order, func(a, b int) int { return bytes.Compare(keys[a], keys[b]) })
	cl.dups = cl.dups[:0]
	if cl.byNode == nil {
		cl.byNode = make(map[int][]int)
	}
	for id, idxs := range cl.byNode {
		cl.byNode[id] = idxs[:0]
	}
	for j := 0; j < len(cl.order); {
		rep := cl.order[j]
		for j++; j < len(cl.order) && bytes.Equal(keys[cl.order[j]], keys[rep]); j++ {
			cl.dups = append(cl.dups, cl.order[j], rep)
		}
		p := rt.partitionOf(keys[rep])
		id := cl.pickReplica(rt, p)
		if id < 0 {
			cl.noteErr(cl.c.downErr(rt.owners[p]))
			continue // out entry stays nil for this key (and its dups)
		}
		cl.byNode[id] = append(cl.byNode[id], rep)
	}
	fetch := func(sub *Client, id int, idxs []int) {
		bytesTotal := 0
		for _, i := range idxs {
			v, ok := cl.c.nodes[id].get(keys[i])
			if ok {
				out[i] = v
				bytesTotal += len(v)
			}
		}
		sub.visit(id, len(idxs), bytesTotal)
	}
	// Deterministic node order for both modes.
	cl.ids = cl.ids[:0]
	for id, idxs := range cl.byNode {
		if len(idxs) > 0 {
			cl.ids = append(cl.ids, id)
		}
	}
	sortInts(cl.ids)
	if len(cl.ids) == 1 || cl.proc == nil || !parallel {
		for _, id := range cl.ids {
			fetch(cl, id, cl.byNode[id])
		}
	} else {
		fns := make([]func(*Client), len(cl.ids))
		for i, id := range cl.ids {
			id := id
			fns[i] = func(sub *Client) { fetch(sub, id, cl.byNode[id]) }
		}
		cl.Parallel(fns...)
	}
	for j := 0; j < len(cl.dups); j += 2 {
		out[cl.dups[j]] = out[cl.dups[j+1]]
	}
	return out
}

// Put stores value under key on every replica (parallel in simulated
// mode, or primary-then-async under AsyncReplication). The write is
// stamped from the key's primary clock, so racing Puts/Deletes from
// any number of clients converge every replica to the same winner.
// Writes never fail: a replica that is down gets the envelope queued
// as a versioned catch-up and replays it on rejoin, so an acknowledged
// write survives the outage.
func (cl *Client) Put(key, value []byte) {
	cl.writeStamped(key, value, false, nil)
}

// Delete removes key from every replica by writing a versioned
// tombstone (swept after the tombstone-GC grace period), so a delete
// racing an older Put wins on every replica regardless of arrival
// order.
func (cl *Client) Delete(key []byte) {
	cl.writeStamped(key, nil, true, nil)
}

// StampVersion draws a snapshot-barrier version: a timestamp strictly
// newer than every stamp any node has issued, which every node then
// observes — so every write that *starts* after this returns is
// stamped strictly newer. The index backfill uses it as its snapshot
// stamp (draw, drain in-flight writers, scan, replay at the stamp);
// per-write stamping goes through the key's primary clock instead
// (see writeStamped) and does not pay the all-nodes round.
func (cl *Client) StampVersion() Version {
	return Version{TS: cl.c.barrierStamp(), Client: cl.id}
}

// PutStamped stores value under key at a caller-chosen version instead
// of a fresh stamp. It loses to every write stamped after ver was
// drawn, which is the point: a bulk writer replaying data "as of" a
// snapshot (the index backfill) stamps everything at the snapshot
// version, and any live write that raced it — including a delete —
// outranks the replay on every replica.
func (cl *Client) PutStamped(key, value []byte, ver Version) {
	cl.writeStamped(key, value, false, &ver)
}

// writeRetryBudget bounds the routing-revalidation loop in
// writeStamped: the write re-applies itself only while rebalances keep
// flipping the table mid-operation, so the budget is only ever
// approached under a pathological rebalance storm — at which point the
// write (already applied under some table) stops retrying and records
// a *ErrFenceExhausted for TakeErr instead of spinning forever.
const writeRetryBudget = 64

// writeStamped routes one versioned put/delete. Unpinned writes (pin ==
// nil) are stamped from the key's primary clock — the node that orders
// the key's writes; observe-on-apply keeps the order intact across
// fail-overs — falling back to a cluster barrier stamp when the whole
// replica set is unreachable. The envelope is built once and applied
// with put-if-newer on every target — current replicas, lagged
// replicas, and the destinations of any in-flight move covering the
// key — and the operation retries (bounded by writeRetryBudget) if the
// routing table changed while it ran, so a concurrent rebalance can
// never strand it on a node that is no longer the key's owner.
// Re-application is naturally idempotent: the same envelope applied
// twice is a no-op.
func (cl *Client) writeStamped(key, val []byte, del bool, pin *Version) {
	var env []byte
	for attempt := 0; ; attempt++ {
		rt := cl.c.beginOp()
		if env == nil {
			ver := Version{Client: cl.id}
			if pin != nil {
				ver = *pin
			} else {
				ver.TS = cl.stampOn(rt, key)
			}
			env = makeEnvelope(ver, del, val)
		}
		cl.writeUnder(rt, key, env)
		settled := cl.c.routing.Load() == rt
		cl.c.endOp(rt)
		if settled {
			return
		}
		if attempt >= writeRetryBudget {
			cl.noteErr(&ErrFenceExhausted{Op: "write", Attempts: attempt + 1, Last: ErrTransient})
			return
		}
	}
}

// stampOn draws a write timestamp from the key's primary clock (first
// reachable owner) under rt, or from a cluster-wide barrier when the
// whole replica set is unreachable.
func (cl *Client) stampOn(rt *routing, key []byte) int64 {
	for _, id := range rt.owners[rt.partitionOf(key)] {
		if cl.c.reachable(id) {
			return cl.c.nodes[id].hlc.Next()
		}
	}
	return cl.c.barrierStamp()
}

// writeUnder applies one envelope under a specific routing table. Down
// targets get the envelope queued for catch-up replay instead of
// applied (applyOrQueue); the visit is paid either way — the attempt
// is part of the operation's cost.
func (cl *Client) writeUnder(rt *routing, key, env []byte) {
	p := rt.partitionOf(key)
	ids := rt.owners[p]
	mv := coveringMove(rt, key)
	if cl.c.cfg.AsyncReplication && cl.proc != nil && len(ids) > 1 {
		// Synchronous primary write; replicas catch up after ReplicaLag.
		// The lagged applies reuse the stamped envelope, so however the
		// catch-ups of racing writers interleave, every replica keeps the
		// newest version — the divergence the unversioned store allowed.
		primary := ids[0]
		cl.c.applyOrQueue(primary, key, env)
		cl.visit(primary, 1, len(key))
		lag := cl.c.cfg.ReplicaLag
		rest := append([]int(nil), ids[1:]...) // outlives this op's scratch
		cl.proc.Env().Spawn(func(p *sim.Proc) {
			p.Sleep(lag)
			// Revalidate ownership *and* liveness under a claimed routing
			// table at fire time: the cluster may have rebalanced during
			// the lag — a catch-up landing on a node that lost the range
			// would resurrect the key there after cleanup purged it — and
			// the target may have been killed meanwhile, in which case
			// the envelope must queue for its rejoin replay rather than
			// being applied to a crashed node (applyOrQueue decides). The
			// claim also serializes the catch-up against cleanup —
			// Rebalance drains claim holders before purging.
			crt := cl.c.beginOp()
			cp := crt.partitionOf(key)
			for _, id := range rest {
				if crt.isOwner(cp, id) {
					cl.c.applyOrQueue(id, key, env)
				} else {
					cl.c.cuDropped.Add(1)
				}
			}
			cl.c.endOp(crt)
		})
		// Move destinations are written synchronously even under async
		// replication: the flip must find them complete.
		cl.doubleApply(mv, key, env, ids[:1])
		return
	}
	if cl.proc == nil || len(ids) == 1 {
		for _, id := range ids {
			cl.c.applyOrQueue(id, key, env)
			cl.visit(id, 1, len(key))
		}
	} else {
		var fns []func(*Client)
		for _, id := range ids {
			id := id
			fns = append(fns, func(sub *Client) {
				cl.c.applyOrQueue(id, key, env)
				sub.visit(id, 1, len(key))
			})
		}
		cl.Parallel(fns...)
	}
	cl.doubleApply(mv, key, env, ids)
}

// coveringMove returns the in-flight move whose range contains key, or
// nil. Moves are disjoint, so at most one matches.
func coveringMove(rt *routing, key []byte) *move {
	for _, mv := range rt.moves {
		if mv.covers(key) {
			return mv
		}
	}
	return nil
}

// visitDsts pays one visit per move destination not already written as
// a current replica.
func (cl *Client) visitDsts(mv *move, ids []int, key []byte) {
	for _, id := range mv.dst {
		if !slices.Contains(ids, id) {
			cl.visit(id, 1, len(key))
		}
	}
}

// doubleApply lands the envelope on the move's destination nodes
// (skipping any already written as current replicas). Put-if-newer on
// both sides makes the double-write commute with the range copy: the
// writer's fresher envelope — value or tombstone — wins regardless of
// interleaving, which is what retired the pre-versioning chunk-window
// tombstone protocol.
func (cl *Client) doubleApply(mv *move, key, env []byte, written []int) {
	if mv == nil {
		return
	}
	for _, id := range mv.dst {
		if slices.Contains(written, id) {
			continue
		}
		cl.c.applyOrQueue(id, key, env)
		cl.visit(id, 1, len(env))
	}
}

// TestAndSet atomically updates key on its authoritative primary when
// the current value matches expect (nil = must be absent), then
// propagates to replicas. A nil update deletes the key. It reports
// whether the swap happened.
//
// TestAndSet is linearizable across rebalances. The decision runs under
// per-node epoch fencing: the primary rejects it (ErrFenced) when the
// claimed routing epoch is stale for the key's range — ownership moved —
// and the client retries under a fresh table, so exactly one node can
// ever accept a swap for a key, even while the routing flips. An
// accepted swap is stamped from the cluster HLC at decision time, so
// its propagation (put-if-newer on replicas and move destinations)
// outranks every write the decision observed — an older plain Put can
// never clobber it. On a range mid-move, the decision and its
// propagation happen inside the move window (mv.mu), serializing them
// against the flip's lease handover; the visits are paid after the
// window is released (sleeping inside it would stall a simulated
// environment and every writer on the range).
//
// If the swap is accepted but the routing changed while the operation
// ran, the accepted write is re-applied under the new table (the test
// itself is not re-run — it already decided, and fencing guarantees no
// other node decided meanwhile). A genuine rejection under an unchanged
// table is final.
//
// The retry loop is bounded by Config.FenceRetryBudget: when the
// primary is unreachable (crashed mid-lease) or keeps fencing, the
// operation backs off and retries until the budget runs out, then
// returns *ErrFenceExhausted. No decision was made in that case — the
// caller may retry the whole operation once the lease expires and
// Rebalance reclaims the range (or the primary restarts). A (false,
// nil) return is always a genuine test failure, never an availability
// artifact — the exactness the index maintainer's duplicate detection
// depends on.
func (cl *Client) TestAndSet(key, expect, update []byte) (bool, error) {
	budget := cl.c.cfg.FenceRetryBudget
	var last error
	for attempt := 0; attempt < budget; attempt++ {
		rt := cl.c.beginOp()
		p := rt.partitionOf(key)
		ids := rt.owners[p]
		primary := ids[0]
		if !cl.c.reachable(primary) {
			// Dead primary whose lease has not yet expired (Rebalance
			// would have reclaimed the range otherwise): no other node
			// may decide, so back off and retry — a restart or the
			// post-expiry reclaim unwedges the key.
			last = cl.c.downErr(ids[:1])
			cl.c.endOp(rt)
			cl.backoff(attempt)
			continue
		}
		mv := coveringMove(rt, key)
		var env []byte // the accepted swap's stamped envelope
		var ok bool
		var err error
		if mv == nil {
			env, ok, err = cl.c.nodes[primary].testAndSet(key, rt.epoch, expect, update, cl.id)
			cl.visit(primary, 1, len(key)+len(update))
			if ok {
				// Propagate the primary's stamped envelope: its version
				// was drawn after the decision read the current value, so
				// put-if-newer can never let an older plain Put — whenever
				// it arrives — clobber the accepted swap on any replica.
				// A down replica gets it queued for rejoin replay.
				for _, id := range ids[1:] {
					cl.c.applyOrQueue(id, key, env)
					cl.visit(id, 1, len(update))
				}
			}
		} else {
			mv.mu.Lock()
			env, ok, err = cl.c.nodes[primary].testAndSet(key, rt.epoch, expect, update, cl.id)
			if ok {
				// Accepted swap in a moving range: land the envelope on
				// every old owner and move destination inside the move
				// window, so the epoch flip never observes a
				// half-propagated decision. (The range copy itself needs
				// no coordination — its older envelopes lose to this one.)
				for _, id := range ids[1:] {
					cl.c.applyOrQueue(id, key, env)
				}
				for _, id := range mv.dst {
					if !slices.Contains(ids, id) {
						cl.c.applyOrQueue(id, key, env)
					}
				}
			}
			mv.mu.Unlock()
			cl.visit(primary, 1, len(key)+len(update))
			if ok {
				for _, id := range ids[1:] {
					cl.visit(id, 1, len(update))
				}
				cl.visitDsts(mv, ids, key)
			}
		}
		if err != nil {
			// Fenced (stale claim) or the primary died mid-contact.
			// Account the reject and retry under a fresh table — the
			// publish that moved ownership lands at most a few
			// instructions after the fence install.
			var fencedErr *ErrFenced
			if errors.As(err, &fencedErr) {
				cl.c.fenced.Add(1)
				cl.fenceRetries++
			}
			last = err
			cl.c.endOp(rt)
			cl.backoff(attempt)
			continue
		}
		cl.c.endOp(rt)
		// No re-application when the routing changed mid-operation (the
		// pre-fencing protocol re-ran the accepted value as a plain write
		// under the new table): an accepted swap has already reached every
		// new owner — through the move window's double-write when the
		// range was moving, or through the copy, which only starts after
		// the pre-move table drains, when it was not. Re-applying here
		// would in fact break linearizability: a swap accepted by the new
		// primary in the meantime would be clobbered by this operation's
		// older value. The decision — either way — is final.
		return ok, nil
	}
	return false, &ErrFenceExhausted{Op: "testandset", Attempts: budget, Last: last}
}

// FenceRetries returns how many times this client's conditional
// operations were fenced and retried under a fresher routing table.
func (cl *Client) FenceRetries() int64 { return cl.fenceRetries }

// RangeRequest describes a range read over [Start, End). A nil Start or
// End leaves that side unbounded. Limit 0 means unlimited. Reverse
// returns items in descending key order (from End side).
type RangeRequest struct {
	Start, End []byte
	Limit      int
	Reverse    bool
}

// GetRange reads a contiguous key range in order, walking partitions as
// needed. Each partition visited costs one storage operation. A
// partition whose replicas are all unreachable is skipped (degraded
// result) and a *ErrNodeDown is recorded for TakeErr.
func (cl *Client) GetRange(req RangeRequest) []KV {
	rt := cl.c.beginOp()
	out := cl.getRangeOn(rt, req, func(p int) int { return cl.pickReplica(rt, p) })
	cl.c.endOp(rt)
	return out
}

// GetRangePrimary is GetRange served by each partition's authoritative
// primary instead of a uniformly-chosen replica. The primary holds
// every write synchronously even under AsyncReplication, so bulk
// readers that must not act on lagged state — the index backfill,
// whose stale read of an already-deleted row would mint a dangling
// entry no tombstone outranks — scan through it (the same reasoning
// that makes Rebalance collect from primaries).
func (cl *Client) GetRangePrimary(req RangeRequest) []KV {
	rt := cl.c.beginOp()
	out := cl.getRangeOn(rt, req, func(p int) int {
		if id := rt.owners[p][0]; cl.c.reachable(id) {
			return id
		}
		return -1
	})
	cl.c.endOp(rt)
	return out
}

func (cl *Client) getRange(rt *routing, req RangeRequest) []KV {
	return cl.getRangeOn(rt, req, func(p int) int { return cl.pickReplica(rt, p) })
}

// getRangeOn walks the partitions intersecting req sequentially, with
// pick choosing the serving node per partition (-1 = no node can serve
// the partition; it is skipped and the degradation recorded).
func (cl *Client) getRangeOn(rt *routing, req RangeRequest, pick func(p int) int) []KV {
	nParts := rt.parts()
	var out []KV
	remaining := req.Limit

	visitPartition := func(p int) bool { // returns false when done
		id := pick(p)
		if id < 0 {
			cl.noteErr(cl.c.downErr(rt.owners[p]))
			return true
		}
		lim := 0
		if req.Limit > 0 {
			lim = remaining
		}
		kvs := cl.c.nodes[id].scan(boundedStart(rt, p, req.Start), boundedEnd(rt, p, req.End), lim, req.Reverse)
		bytesTotal := 0
		for _, kv := range kvs {
			bytesTotal += len(kv.Value)
		}
		cl.visit(id, max(1, len(kvs)), bytesTotal)
		if out == nil {
			out = kvs // the node's slice is fresh: no copy when one partition serves the request
		} else {
			out = append(out, kvs...)
		}
		if req.Limit > 0 {
			remaining -= len(kvs)
			if remaining <= 0 {
				return false
			}
		}
		return true
	}

	if !req.Reverse {
		start := 0
		if req.Start != nil {
			start = rt.partitionOf(req.Start)
		}
		for p := start; p < nParts; p++ {
			if req.End != nil && p > 0 && len(rt.splits) >= p && bytes.Compare(rt.splits[p-1], req.End) >= 0 {
				break
			}
			if !visitPartition(p) {
				break
			}
		}
	} else {
		start := nParts - 1
		if req.End != nil {
			// The partition owning End also holds the keys just below
			// it, except when End sits exactly on a split boundary — then
			// the extra partition scan is harmless (empty result).
			start = rt.partitionOf(req.End)
		}
		for p := start; p >= 0; p-- {
			if req.Start != nil && p < nParts-1 && bytes.Compare(rt.splits[p], req.Start) <= 0 {
				break // partition entirely below Start
			}
			if !visitPartition(p) {
				break
			}
		}
	}
	return out
}

// GetRangeScatter is GetRange for the ParallelExecutor: when the range
// spans several partitions in simulated mode, the per-partition scans
// are issued concurrently — each speculatively fetching up to Limit
// items — then concatenated in key order (partitions are disjoint,
// ordered byte ranges) and truncated to Limit. Speculation is sound for
// PIQL because every compiled plan is statically bounded: Limit is
// always a small constant. Wall-clock cost becomes the max of the
// per-partition round trips instead of their sum, at one storage
// operation per intersecting partition. With a single partition it
// falls back to the sequential early-stopping walk. In immediate mode
// the fan-out runs on real goroutines (one per partition, detached
// child clients whose op counts merge back after the join), so
// non-simulated backends get the same intra-operator parallelism the
// virtual-time path models — previously immediate mode silently fell
// back to the sequential walk.
func (cl *Client) GetRangeScatter(req RangeRequest) []KV {
	rt := cl.c.beginOp()
	defer cl.c.endOp(rt)
	lo, hi := rt.rangeParts(req.Start, req.End)
	if lo == hi {
		return cl.getRange(rt, req)
	}
	parts := make([][]KV, hi-lo+1)
	ids := make([]int, hi-lo+1)
	for p := lo; p <= hi; p++ {
		ids[p-lo] = cl.pickReplica(rt, p) // parent RNG: deterministic draw order
		if ids[p-lo] < 0 {
			cl.noteErr(cl.c.downErr(rt.owners[p]))
		}
	}
	fns := make([]func(*Client), hi-lo+1)
	for p := lo; p <= hi; p++ {
		p := p
		if ids[p-lo] < 0 {
			fns[p-lo] = func(*Client) {} // unreachable partition: degraded result
			continue
		}
		fns[p-lo] = func(sub *Client) {
			kvs := cl.c.nodes[ids[p-lo]].scan(boundedStart(rt, p, req.Start), boundedEnd(rt, p, req.End), req.Limit, req.Reverse)
			payload := 0
			for _, kv := range kvs {
				payload += len(kv.Value)
			}
			sub.visit(ids[p-lo], max(1, len(kvs)), payload)
			parts[p-lo] = kvs
		}
	}
	cl.fanOut(fns...)
	var out []KV
	if req.Reverse {
		for i := len(parts) - 1; i >= 0; i-- {
			out = append(out, parts[i]...)
		}
	} else {
		for _, kvs := range parts {
			out = append(out, kvs...)
		}
	}
	if req.Limit > 0 && len(out) > req.Limit {
		out = out[:req.Limit]
	}
	return out
}

// CountRange returns the number of keys in [start, end), walking all
// partitions intersecting the range. This backs cardinality-constraint
// enforcement (Section 7.2). In simulated mode the per-partition counts
// are gathered concurrently (counts are additive, so merge order is
// irrelevant), making the write path's constraint check cost one round
// trip instead of one per partition.
func (cl *Client) CountRange(start, end []byte) int {
	rt := cl.c.beginOp()
	defer cl.c.endOp(rt)
	lo, hi := rt.rangeParts(start, end)
	countPartition := func(sub *Client, p, id int) int {
		n := cl.c.nodes[id].count(boundedStart(rt, p, start), boundedEnd(rt, p, end))
		sub.visit(id, max(1, n), 0)
		return n
	}
	total := 0
	if cl.proc == nil || lo == hi {
		for p := lo; p <= hi; p++ {
			id := cl.pickReplica(rt, p)
			if id < 0 {
				cl.noteErr(cl.c.downErr(rt.owners[p]))
				continue
			}
			total += countPartition(cl, p, id)
		}
		return total
	}
	counts := make([]int, hi-lo+1)
	fns := make([]func(*Client), hi-lo+1)
	for p := lo; p <= hi; p++ {
		p := p
		id := cl.pickReplica(rt, p)
		if id < 0 {
			cl.noteErr(cl.c.downErr(rt.owners[p]))
			fns[p-lo] = func(*Client) {}
			continue
		}
		fns[p-lo] = func(sub *Client) { counts[p-lo] = countPartition(sub, p, id) }
	}
	cl.Parallel(fns...)
	for _, n := range counts {
		total += n
	}
	return total
}

// boundedStart clips start to partition p's lower bound. Since replicas
// hold whole partitions this is equivalent to the raw bound, but clipping
// keeps per-partition scans from double-counting items replicated onto
// successor nodes.
func boundedStart(rt *routing, p int, start []byte) []byte {
	if p == 0 {
		return start
	}
	lower := rt.splits[p-1]
	if start == nil || bytes.Compare(lower, start) > 0 {
		return lower
	}
	return start
}

func boundedEnd(rt *routing, p int, end []byte) []byte {
	if p >= len(rt.splits) {
		return end
	}
	upper := rt.splits[p]
	if end == nil || bytes.Compare(upper, end) < 0 {
		return upper
	}
	return end
}

// fanOut runs fns concurrently even in immediate mode: simulated
// clients defer to Parallel (virtual-time children), immediate clients
// spawn one real goroutine per fn over detached child clients and merge
// their operation counts into this client's chain after the join (the
// detachment keeps the per-op counter walk in countOp race-free while
// the goroutines run). The children are scratch — one Client allocation
// each, with a generator derived from the parent's — pooled on the
// parent and reused across calls like the other per-op buffers. Callers
// must pre-draw any RNG decisions — the fns must not touch cl.rng.
func (cl *Client) fanOut(fns ...func(sub *Client)) {
	if cl.proc != nil {
		cl.Parallel(fns...)
		return
	}
	for len(cl.subs) < len(fns) {
		cl.subs = append(cl.subs, &Client{c: cl.c, rng: cl.rng.child(), id: cl.id})
	}
	var wg sync.WaitGroup
	for i, fn := range fns {
		sub := cl.subs[i]
		sub.ops = 0
		sub.lastErr = nil
		wg.Add(1)
		//lint:allow goroleak — fan-out children are wg-joined before fanOut returns; fn is the caller's sub-operation and shares its lifetime.
		go func(sub *Client, fn func(*Client)) {
			defer wg.Done()
			fn(sub)
		}(sub, fn)
	}
	wg.Wait()
	for _, sub := range cl.subs[:len(fns)] {
		for p := cl; p != nil; p = p.parent {
			p.ops += sub.ops
		}
		if sub.lastErr != nil {
			cl.noteErr(sub.lastErr)
			sub.lastErr = nil
		}
	}
}

// Parallel runs fns concurrently (virtual-time children sharing this
// client's op counter) and returns when all complete. In immediate mode
// the functions run sequentially on cl itself: there is no concurrency
// to isolate, so no child is created.
func (cl *Client) Parallel(fns ...func(sub *Client)) {
	if cl.proc == nil {
		for _, fn := range fns {
			fn(cl)
		}
		return
	}
	wrapped := make([]func(*sim.Proc), len(fns))
	for i, fn := range fns {
		fn := fn
		wrapped[i] = func(p *sim.Proc) { fn(cl.child(p)) }
	}
	cl.proc.Parallel(wrapped...)
}

// child derives a client for a simulated parallel branch, with its own
// RNG stream (seeded from two draws of the parent's) but op counts and
// degraded-read errors rolled up into the parent.
func (cl *Client) child(proc *sim.Proc) *Client {
	return &Client{
		c:          cl.c,
		proc:       proc,
		rng:        cl.rng.child(),
		id:         cl.id,
		parent:     cl,
		readQuorum: cl.readQuorum,
	}
}

func sortInts(a []int) { sort.Ints(a) }
