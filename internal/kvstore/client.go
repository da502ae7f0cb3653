package kvstore

import (
	"bytes"
	"runtime"
	"slices"
	"sort"
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
// rebalances.
//
// Reads come in four shapes: Read (one key), ReadBatch (a set of keys),
// Scan (one range) and ScanRanges (a request set of ranges, a sorted
// join's one per key). Each is one call however its requests are issued;
// ReadOpts says whether they go one after another or concurrently.
// Concurrency lives in one place, the branch runner (branches): every
// request set the store issues concurrently — ReadBatch's per-node
// batches, Scan's and Count's per-partition reads, ScanRanges' ranges, a
// write's replica fan-out — and Parallel, for callers whose branches are
// not one store call (index maintenance, model training, the benchmark's
// probes), run through it. It only runs on a simulated client, as one
// sim Fork on pooled processes, giving each branch a child of its own,
// all carved from one slab per request set (the generator is a value
// inside the struct); in immediate mode the same per-node or
// per-partition method runs on the caller itself, one request after
// another, and builds no closure.
//
// Every operation claims one routing-table snapshot for its duration.
// Reads route through the snapshot (old owners keep serving a range
// until its move completes, so reads never fail mid-rebalance), each
// partition served by one replica: a uniform choice with failover, or
// the primary (see Replicas). Writes reach every owner synchronously,
// additionally double-write to the destinations of any in-flight move
// covering their key, and re-apply themselves if the routing table
// changed while they ran — the pair of rules that guarantees a rebalance
// loses no concurrent write.
//
// Every operation that can degrade returns an error: a read that found
// no replica it may use reachable returns *ErrNodeDown and no
// data (never a silently short result), a write or conditional write
// that ran out of retries returns *ErrFenceExhausted. All of them unwrap
// to ErrTransient — no decision was made and the caller may retry. A nil
// error means the result is complete.
type Client struct {
	c    *Cluster
	proc *sim.Proc // nil in immediate mode
	rng  rng       // replica choice + RTT sampling
	id   int64     // cluster-unique; the version tiebreaker on writes

	ops          int64 // operations issued through this client (and its children)
	fenceRetries int64 // conditional ops retried after an epoch-fencing reject
	parent       *Client

	// Scratch reused across operations to keep the per-request hot path
	// allocation-lean. Safe because a Client is single-goroutine and the
	// scratch is only read (never written) while branches run.
	byNode map[int][]int // ReadBatch: unique-key indexes grouped by node
	ids    []int         // ReadBatch: deterministic node order; pickParts: each partition's serving node
	order  []int         // ReadBatch: key indexes sorted for deduplication
	dups   []int         // ReadBatch: flattened (dup, first) index pairs

	fns []func(sub *Client) // Parallel: the branches of the call in flight, read by its children
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

// Ops returns the number of storage operations issued through this client
// since creation (including operations issued by its branches' children).
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
	rtt := sampleRTT(&cl.rng)
	cl.proc.Sleep(rtt / 2)
	n := cl.c.nodes[id]
	service := n.sampleService(cl.c.cfg.Seed, cl.proc.Now(), items, payloadBytes)
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

// Replicas selects which of a partition's replicas serves a read.
type Replicas int

const (
	// Any is one replica chosen uniformly, failing over to a live one
	// when the choice is unreachable — the default: one visit, spread
	// over the replica set.
	Any Replicas = 0
	// Primary is the partition's authoritative primary and nothing else:
	// the copy whose clock stamps the key's writes and which every write
	// reaches first, while another replica may still trail it. Readers
	// that must see every write the primary took use it: the index
	// backfill (a stale read of an already-deleted row would mint a
	// dangling entry no tombstone outranks) and the build's ghost
	// assertion (a trailing replica must not pass for a violation) — the
	// copy Rebalance collects from too. It draws nothing from the
	// client's generator.
	Primary Replicas = -1
)

// ReadOpts shapes one read. The zero value is the plain read: any
// replica, sequential.
type ReadOpts struct {
	// From selects the serving replica of each partition.
	From Replicas
	// Parallel issues the read's independent requests — ReadBatch's
	// per-node batches, Scan's and Count's per-partition scans,
	// ScanRanges' ranges — concurrently instead of one after another, so
	// the latency is the slowest request rather than their sum, at the
	// same operation count.
	Parallel bool
}

// pick chooses the node serving partition p for a single-replica read,
// or -1 when none can.
func (cl *Client) pick(rt *routing, p int, from Replicas) int {
	if from != Primary {
		return cl.pickReplica(rt, p)
	}
	if id := rt.owners[p][0]; cl.c.reachable(id) {
		return id
	}
	return -1
}

// live strips a stored envelope: a missing key (nil) or a versioned
// tombstone reads as absent.
func live(env []byte) ([]byte, bool) {
	if env == nil || envIsTombstone(env) {
		return nil, false
	}
	return envValue(env), true
}

// readNode fetches key's stored envelope (nil if the node never saw the
// key) from one node, paying the visit.
func (cl *Client) readNode(id int, key []byte) []byte {
	env, _ := cl.c.nodes[id].getRaw(key)
	v, _ := live(env)
	cl.visit(id, 1, len(v))
	return env
}

// read is the one point-read path: it returns key's stored envelope on
// the replica from selects, tombstones included (nil = never written),
// so callers derive value, presence and version from one result.
func (cl *Client) read(rt *routing, key []byte, from Replicas) ([]byte, error) {
	p := rt.partitionOf(key)
	id := cl.pick(rt, p, from)
	if id < 0 {
		return nil, cl.c.downErr(rt.owners[p])
	}
	return cl.readNode(id, key), nil
}

// Read returns the value under key and the version it was written at.
// A deleted key reads as absent (ok false) but still reports its
// tombstone's version; a never-written key reports the zero Version.
func (cl *Client) Read(key []byte, o ReadOpts) (val []byte, ver Version, ok bool, err error) {
	rt := cl.c.beginOp()
	env, err := cl.read(rt, key, o.From)
	cl.c.endOp(rt)
	if env == nil {
		return nil, Version{}, false, err
	}
	val, ok = live(env)
	return val, envVersion(env), ok, nil
}

// ReadBatch fetches several keys with one batched request per node —
// issued concurrently under o.Parallel, the Parallel executor's fast
// path, or one after another, the Simple executor's batching without
// intra-operator parallelism. Repeated keys are deduplicated (fetched
// once, fanned out to every requesting position). Missing keys yield nil
// entries.
func (cl *Client) ReadBatch(keys [][]byte, o ReadOpts) ([][]byte, error) {
	out := make([][]byte, len(keys))
	if len(keys) == 0 {
		return out, nil
	}
	rt := cl.c.beginOp()
	defer cl.c.endOp(rt)
	if len(keys) == 1 {
		// The point-lookup fast path: no grouping or dedup scratch.
		env, err := cl.read(rt, keys[0], o.From)
		if err != nil {
			return nil, err
		}
		out[0], _ = live(env)
		return out, nil
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
		id := cl.pick(rt, p, o.From)
		if id < 0 {
			return nil, cl.c.downErr(rt.owners[p])
		}
		cl.byNode[id] = append(cl.byNode[id], rep)
	}
	// Deterministic node order for both modes.
	cl.ids = cl.ids[:0]
	for id, idxs := range cl.byNode {
		if len(idxs) > 0 {
			cl.ids = append(cl.ids, id)
		}
	}
	sort.Ints(cl.ids)
	if len(cl.ids) == 1 || cl.proc == nil || !o.Parallel {
		for _, id := range cl.ids {
			cl.readNodeBatch(id, cl.byNode[id], keys, out)
		}
	} else {
		cl.branches(len(cl.ids), func(sub *Client, i int) { sub.readNodeBatch(cl.ids[i], cl.byNode[cl.ids[i]], keys, out) })
	}
	for j := 0; j < len(cl.dups); j += 2 {
		out[cl.dups[j]] = out[cl.dups[j+1]]
	}
	return out, nil
}

// readNodeBatch reads keys[i] for every i in idxs from node id into
// out[i] in one batched request, paying its visit.
func (cl *Client) readNodeBatch(id int, idxs []int, keys, out [][]byte) {
	bytesTotal := 0
	for _, i := range idxs {
		env, _ := cl.c.nodes[id].getRaw(keys[i])
		out[i], _ = live(env)
		bytesTotal += len(out[i])
	}
	cl.visit(id, len(idxs), bytesTotal)
}

// RangeRequest describes a range read over [Start, End). A nil Start or
// End leaves that side unbounded. Limit 0 means unlimited. Reverse
// returns items in descending key order (from End side).
type RangeRequest struct {
	Start, End []byte
	Limit      int
	Reverse    bool
}

// Scan reads a contiguous key range in order, visiting every partition
// the range intersects; each partition visited costs one storage
// operation. A partition with no replica the policy accepts reachable
// fails the whole read with *ErrNodeDown — a range read is complete or
// it is an error, never short.
//
// Sequentially, partitions are walked in key order and the walk stops as
// soon as Limit items are in hand. Under o.Parallel, when the range
// spans several partitions, every partition is visited speculatively —
// each for up to Limit items, its serving node drawn up front — and the
// results, in key order (partitions are disjoint, ordered byte ranges),
// are truncated to Limit. Speculation is sound for PIQL because every
// compiled plan is statically bounded: Limit is always a small constant.
// On a simulated client the per-partition scans are concurrent, so the
// latency is the max of their round trips instead of their sum, at one
// storage operation per intersecting partition. In immediate mode they
// run one after the other, appending into the one result: they are
// microseconds of in-memory work.
func (cl *Client) Scan(req RangeRequest, o ReadOpts) ([]KV, error) {
	rt := cl.c.beginOp()
	defer cl.c.endOp(rt)
	lo, hi := rt.rangeParts(req.Start, req.End)
	if !o.Parallel || cl.proc == nil || lo == hi {
		return cl.appendRange(scanBuf(req.Limit), rt, req, o)
	}
	ids, err := cl.pickParts(rt, lo, hi, o.From)
	if err != nil {
		return nil, err
	}
	parts := make([][]KV, len(ids))
	cl.branches(len(ids), func(sub *Client, i int) {
		parts[i] = sub.scanPart(scanBuf(req.Limit), rt, lo+i, ids[i], req, req.Limit)
	})
	if req.Reverse {
		slices.Reverse(parts)
	}
	out := slices.Concat(parts...)
	if req.Limit > 0 && len(out) > req.Limit {
		out = out[:req.Limit]
	}
	return out, nil
}

// appendRange appends what Scan(req, o) returns to dst — the one body of
// every range read but a simulated client's concurrent one. A
// sequential read walks the partitions in req's direction and stops as
// soon as Limit items are in hand. Under o.Parallel a range that spans
// partitions is read as the concurrent one reads it, one partition after
// another: every partition visited for up to Limit items, the serving
// nodes drawn lo..hi up front, the result cut to Limit.
func (cl *Client) appendRange(dst []KV, rt *routing, req RangeRequest, o ReadOpts) ([]KV, error) {
	lo, hi := rt.rangeParts(req.Start, req.End)
	var ids []int // speculating: the serving node of each partition
	if o.Parallel && lo != hi {
		var err error
		if ids, err = cl.pickParts(rt, lo, hi, o.From); err != nil {
			return nil, err
		}
	}
	step, p, last := 1, lo, hi
	if req.Reverse {
		step, p, last = -1, hi, lo
	}
	from := len(dst)
	for limit := req.Limit; ; p += step {
		var id int
		if ids != nil {
			id = ids[p-lo]
		} else if id = cl.pick(rt, p, o.From); id < 0 {
			return nil, cl.c.downErr(rt.owners[p])
		}
		n := len(dst)
		if dst = cl.scanPart(dst, rt, p, id, req, limit); ids == nil {
			limit -= len(dst) - n
		}
		if p == last || (req.Limit > 0 && limit <= 0) {
			break
		}
	}
	if req.Limit > 0 && len(dst)-from > req.Limit {
		dst = dst[:from+req.Limit]
	}
	return dst, nil
}

// ScanRanges reads a request set of ranges — a sorted join's per-key
// ranges — in one call: out[i] is what Scan(reqs[i], o) returns, at the
// same operations and with the same draws from the client's generator.
// Under o.Parallel on a simulated client each range is a concurrent
// branch whose child client scans it as Scan does, so the set costs its
// slowest range. Otherwise the ranges are read one after another under
// one routing snapshot and appended into one buffer, sized as their
// Scans' results would be together. Every out[i] has its capacity at its
// length, so appending to one range cannot overwrite the next. A range
// that fails fails the set with the error of the first such range and no
// data; in the sequential case the ranges after it are not read.
func (cl *Client) ScanRanges(reqs []RangeRequest, o ReadOpts) ([][]KV, error) {
	out := make([][]KV, len(reqs))
	if o.Parallel && cl.proc != nil {
		// The branches share first: they run one at a time on the
		// cooperative scheduler.
		var first struct {
			err error
			i   int // the range err came from
		}
		cl.branches(len(reqs), func(sub *Client, i int) {
			kvs, err := sub.Scan(reqs[i], o)
			if err != nil && (first.err == nil || i < first.i) {
				first.err, first.i = err, i
			}
			out[i] = kvs[:len(kvs):len(kvs)]
		})
		if first.err != nil {
			return nil, first.err
		}
		return out, nil
	}
	rt := cl.c.beginOp()
	defer cl.c.endOp(rt)
	size := 0
	for _, req := range reqs {
		size += scanCap(req.Limit)
	}
	buf := make([]KV, 0, size)
	for i, req := range reqs {
		from := len(buf)
		var err error
		if buf, err = cl.appendRange(buf, rt, req, o); err != nil {
			return nil, err
		}
		out[i] = buf[from:len(buf):len(buf)]
	}
	return out, nil
}

// scanPart appends to dst the slice of req that partition p holds on
// node id (limit <= 0: all of it), paying the visit.
func (cl *Client) scanPart(dst []KV, rt *routing, p, id int, req RangeRequest, limit int) []KV {
	from := len(dst)
	dst = cl.c.nodes[id].scan(dst, boundedStart(rt, p, req.Start), boundedEnd(rt, p, req.End), limit, req.Reverse)
	payload := 0
	for _, kv := range dst[from:] {
		payload += len(kv.Value)
	}
	cl.visit(id, max(1, len(dst)-from), payload)
	return dst
}

// pickParts draws the serving node of every partition in [lo, hi] up
// front, in partition order on this client's generator: concurrent
// branches must not touch it, and the draw order stays deterministic.
// The result is the client's scratch, which ReadBatch shares: good until
// the client's next read.
func (cl *Client) pickParts(rt *routing, lo, hi int, from Replicas) ([]int, error) {
	cl.ids = slices.Grow(cl.ids[:0], hi-lo+1)
	for p := lo; p <= hi; p++ {
		id := cl.pick(rt, p, from)
		if id < 0 {
			return nil, cl.c.downErr(rt.owners[p])
		}
		cl.ids = append(cl.ids, id)
	}
	return cl.ids, nil
}

// Count returns the number of keys in [start, end), visiting every
// partition the range intersects. This backs cardinality-constraint
// enforcement (Section 7.2), which is why an unreachable partition is an
// error and never a smaller number: an undercount would admit an insert
// past its limit. Under o.Parallel in simulated mode the per-partition
// counts are gathered concurrently (counts are additive, so merge order
// is irrelevant), making the write path's constraint check cost one
// round trip instead of one per partition.
func (cl *Client) Count(start, end []byte, o ReadOpts) (int, error) {
	rt := cl.c.beginOp()
	defer cl.c.endOp(rt)
	lo, hi := rt.rangeParts(start, end)
	if !o.Parallel || cl.proc == nil || lo == hi {
		total := 0
		for p := lo; p <= hi; p++ {
			id := cl.pick(rt, p, o.From)
			if id < 0 {
				return 0, cl.c.downErr(rt.owners[p])
			}
			total += cl.countPart(rt, p, id, start, end)
		}
		return total, nil
	}
	ids, err := cl.pickParts(rt, lo, hi, o.From)
	if err != nil {
		return 0, err
	}
	// The branches share total: they run one at a time on the cooperative
	// scheduler.
	total := 0
	cl.branches(len(ids), func(sub *Client, i int) { total += sub.countPart(rt, lo+i, ids[i], start, end) })
	return total, nil
}

// countPart counts the live keys of [start, end) that partition p holds
// on node id, paying the visit.
func (cl *Client) countPart(rt *routing, p, id int, start, end []byte) int {
	n := cl.c.nodes[id].count(boundedStart(rt, p, start), boundedEnd(rt, p, end))
	cl.visit(id, max(1, n), 0)
	return n
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
	// The branch body reaches fns through the child's parent, so it
	// captures nothing and the call allocates only what branches does.
	cl.fns = fns
	cl.branches(len(fns), parallelBranch)
	cl.fns = nil
}

func parallelBranch(sub *Client, i int) { sub.parent.fns[i](sub) }

// branches is the branch runner, the one place the store runs requests
// concurrently: it runs body(sub, i) for every i in [0, n) as a branch
// of this simulated client's process (a sim Fork) and returns when all
// have completed, so the set costs its slowest branch. The n child
// clients are carved from one slab per call; each branch fills in its
// own as it starts, in index order, drawing its generator stream from
// cl's, so the streams are a function of the seed. A child shares cl's
// id and rolls its op counts up into cl.
func (cl *Client) branches(n int, body func(sub *Client, i int)) {
	subs := make([]Client, n)
	cl.proc.Fork(n, func(p *sim.Proc, i int) {
		sub := &subs[i]
		*sub = Client{c: cl.c, proc: p, rng: cl.rng.child(), id: cl.id, parent: cl}
		body(sub, i)
	})
}
