package kvstore

import (
	"bytes"
	"runtime"
	"slices"
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
// A read is one call however many requests it takes: Read, the writers'
// versioned point read, or Issue, which reads one request set into
// buffers the caller owns. A write is one call too: Apply writes a set
// of keys, and Put and Delete are sets of one. Concurrency lives in one
// place, the branch runner (branches): a set's reads and writes happen
// on the issuing client under one routing claim, and when its requests
// are concurrent (ReadOpts.Parallel, or a write's owner visits) their
// visits, across all of a PerKeyRanges' ranges, run as the branches of
// one settle. Branches run only on a simulated client, as one sim Fork
// on pooled processes, each on a child client, all carved from one slab
// (the generator is a value inside the struct). In immediate mode the
// visits are paid one after another on the caller itself, and build no
// closure.
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
	// scratch is only read (never written) while branches run, which
	// reach it through their parent, so that a branch body captures
	// nothing.
	order []int    // Gets: key indexes sorted for deduplication; walk: each partition's serving node
	dups  []int    // Gets: flattened (dup, first) index pairs
	batch [][2]int // Gets: (node, key index) of each distinct key, by node
	costs []cost   // the visits pay held back for settle
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

// Yield lets others run while the caller polls for a condition another
// process or goroutine must establish (the engine's write barrier, an
// index build's waiters): it parks a simulated process until the next
// pending event, or calls runtime.Gosched in immediate mode. A simulated
// process holds the scheduler's token, so it must poll this way rather
// than block on a channel or lock another process needs.
func (cl *Client) Yield() { yield(cl.proc) }

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
// restart may be in flight) before giving up with -1. The fall-through
// to the other owners is what keeps reads up through an outage: the
// mutant ledger's failover-off rows take it out, and the chaos storms
// fail.
func (cl *Client) pickReplica(rt *routing, p int) int {
	owners := rt.owners[p]
	for attempt := 0; ; attempt++ {
		r := cl.rng.intn(len(owners))
		if id := owners[r]; cl.c.reachable(id) {
			return id
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
	// Parallel issues a request set's independent requests — a Gets'
	// per-node batches, the partitions of a range or count that spans
	// several, PerKeyRanges' ranges — concurrently instead of one after
	// another, so the latency is the slowest request rather than their
	// sum, at the same operation count.
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

// read is the one point-read path: it returns key's stored envelope on
// the replica from selects, tombstones included (nil = never written),
// so callers derive value, presence and version from one result.
func (cl *Client) read(rt *routing, key []byte, from Replicas) ([]byte, error) {
	p := rt.partitionOf(key)
	id := cl.pick(rt, p, from)
	if id < 0 {
		return nil, cl.c.downErr(rt.owners[p])
	}
	env, _ := cl.c.nodes[id].getRaw(key)
	v, _ := live(env)
	cl.visit(id, 1, len(v))
	return env, nil
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

// RangeRequest describes a range read over [Start, End). A nil Start or
// End leaves that side unbounded. Limit 0 means unlimited. Reverse
// returns items in descending key order (from End side).
type RangeRequest struct {
	Start, End []byte
	Limit      int
	Reverse    bool
}

// RequestKind is the shape of a request set: the three a plan issues
// (core.RequestKind) and the write path's Count.
type RequestKind int

const (
	// Gets reads the value under each of Keys, one batched request per
	// node.
	Gets RequestKind = iota
	// Range reads the items of Range, one request per partition visited.
	Range
	// PerKeyRanges reads each of Ranges (a sorted join's one per key) as
	// a Range reads it.
	PerKeyRanges
	// Count counts the live keys of Range (its Limit and Reverse do not
	// apply), one request per partition it spans. It backs cardinality
	// constraints (Section 7.2): an undercount would admit an insert past
	// its limit, so an unreachable partition is an error.
	Count
)

// RequestSet is one read: what it asks and, once issued, its answers.
// Issue appends the answers to the set's buffers, as append does: a
// caller that keeps its buffers between sets (the executor keeps one per
// session) reads into memory it already has. The keys and values
// appended alias the store's immutable copies.
type RequestSet struct {
	Kind   RequestKind
	Keys   [][]byte       // Gets
	Range  RangeRequest   // Range and Count
	Ranges []RangeRequest // PerKeyRanges

	Values   [][]byte // Gets: the value under each key in order, nil if missing
	Items    []KV     // Range: its items in its order
	PerRange [][]KV   // PerKeyRanges: each range's items, capped at their length
	N        int      // Count
}

// Issue reads one request set in one call, under one routing claim. Its
// requests go one after another or, under o.Parallel on a simulated
// client, concurrently: every visit of the set, across all its ranges, is
// held and paid by one settle, so the set costs its slowest request.
// Under o.Parallel a range spanning several partitions visits every one
// of them for up to Limit items. A set that cannot be read whole returns
// the error of the first request that failed and leaves the answers as
// they were (the visits already made are still paid): never a short
// result.
func (cl *Client) Issue(set *RequestSet, o ReadOpts) error {
	vals, items, ranges, n := set.Values, set.Items, set.PerRange, set.N
	rt := cl.c.beginOp()
	err := cl.readSet(rt, set, o)
	cl.settle()
	cl.c.endOp(rt)
	if err != nil {
		set.Values, set.Items, set.PerRange, set.N = vals, items, ranges, n
	}
	return err
}

// readSet reads set under rt on the client itself.
func (cl *Client) readSet(rt *routing, set *RequestSet, o ReadOpts) error {
	switch set.Kind {
	case Gets:
		return cl.gets(rt, set, o)
	case Range:
		set.Items = grow(set.Items, scanCap(set.Range.Limit))
		return cl.walk(rt, set, set.Range, o)
	case Count:
		set.N = 0
		return cl.walk(rt, set, RangeRequest{Start: set.Range.Start, End: set.Range.End}, o)
	}
	size := 0
	for _, req := range set.Ranges {
		size += scanCap(req.Limit)
	}
	set.Items = grow(set.Items, size)
	for _, req := range set.Ranges {
		from := len(set.Items)
		if err := cl.walk(rt, set, req, o); err != nil {
			return err
		}
		set.PerRange = append(set.PerRange, set.Items[from:len(set.Items):len(set.Items)])
	}
	return nil
}

// gets reads set, a Gets, with one batched request per node, the nodes
// in order. A repeated key (FK joins re-fetch the same parent
// record constantly) is fetched once and fanned out to every position
// that asks for it. The dedup sorts the key indexes and aliases runs of
// equal keys to their first, so it needs no per-key allocation; its
// scratch is reused across calls.
func (cl *Client) gets(rt *routing, set *RequestSet, o ReadOpts) error {
	keys, from := set.Keys, len(set.Values)
	set.Values = grow(set.Values, len(keys))[:from+len(keys)]
	out := set.Values[from:]
	cl.order = cl.order[:0]
	for i := range keys {
		cl.order = append(cl.order, i)
	}
	slices.SortFunc(cl.order, func(a, b int) int { return bytes.Compare(keys[a], keys[b]) })
	cl.dups, cl.batch = cl.dups[:0], cl.batch[:0]
	for j := 0; j < len(cl.order); {
		rep := cl.order[j]
		for j++; j < len(cl.order) && bytes.Equal(keys[cl.order[j]], keys[rep]); j++ {
			cl.dups = append(cl.dups, cl.order[j], rep)
		}
		p := rt.partitionOf(keys[rep])
		id := cl.pick(rt, p, o.From)
		if id < 0 {
			return cl.c.downErr(rt.owners[p])
		}
		cl.batch = append(cl.batch, [2]int{id, rep})
	}
	slices.SortFunc(cl.batch, func(a, b [2]int) int { return a[0] - b[0] })
	for j := 0; j < len(cl.batch); {
		id, items, payload := cl.batch[j][0], 0, 0
		for ; j < len(cl.batch) && cl.batch[j][0] == id; j, items = j+1, items+1 {
			i := cl.batch[j][1]
			env, _ := cl.c.nodes[id].getRaw(keys[i])
			out[i], _ = live(env)
			payload += len(out[i])
		}
		cl.pay(o.Parallel, id, items, payload)
	}
	for j := 0; j < len(cl.dups); j += 2 {
		out[cl.dups[j]] = out[cl.dups[j+1]]
	}
	return nil
}

// walk reads req, a range of set, partition by partition in its
// direction: a Count adds their live keys to N, the other kinds append
// their items to Items. Sequentially, each partition's node is
// drawn as the walk reaches it, and the walk stops once Limit items are
// in hand. Under o.Parallel a range spanning several partitions is read
// speculatively: every partition's node drawn up front, in key order,
// every partition read for up to Limit items, and the items cut to
// Limit. That is sound for PIQL because a compiled plan's Limit is a
// small constant. Under o.Parallel every visit is held for Issue's
// settle, with the set's others.
func (cl *Client) walk(rt *routing, set *RequestSet, req RangeRequest, o ReadOpts) error {
	lo, hi := rt.rangeParts(req.Start, req.End)
	spec, mark := o.Parallel && lo != hi, len(cl.costs)
	if spec {
		cl.order = cl.order[:0]
		for p := lo; p <= hi; p++ {
			id := cl.pick(rt, p, o.From)
			if id < 0 {
				return cl.c.downErr(rt.owners[p])
			}
			cl.order = append(cl.order, id)
		}
	}
	step, p, last := 1, lo, hi
	if req.Reverse {
		step, p, last = -1, hi, lo
	}
	from := len(set.Items)
	for limit := req.Limit; ; p += step {
		var id int
		if spec {
			id = cl.order[p-lo]
		} else if id = cl.pick(rt, p, o.From); id < 0 {
			return cl.c.downErr(rt.owners[p])
		}
		start, end := clip(rt, p, req.Start, req.End)
		n, payload := 0, 0
		if set.Kind == Count {
			n = cl.c.nodes[id].count(start, end)
			set.N += n
		} else {
			at := len(set.Items)
			set.Items = cl.c.nodes[id].scan(set.Items, start, end, limit, req.Reverse)
			for _, kv := range set.Items[at:] {
				payload += len(kv.Value)
			}
			n = len(set.Items) - at
		}
		cl.pay(o.Parallel, id, max(1, n), payload)
		if !spec {
			limit -= n
		}
		if p == last || (req.Limit > 0 && limit <= 0) {
			break
		}
	}
	if req.Limit > 0 && len(set.Items)-from > req.Limit {
		set.Items = set.Items[:from+req.Limit]
	}
	if spec && req.Reverse {
		slices.Reverse(cl.costs[mark:]) // a branch per partition, in key order
	}
	return nil
}

// cost is the visit one request owes: its node, the items it touched
// and the bytes it returned.
type cost struct{ id, items, bytes int }

// pay pays the visit a request owes node id: at once, or, for a
// concurrent set on a simulated client, when settle pays the set's.
func (cl *Client) pay(concurrent bool, id, items, bytes int) {
	if concurrent && cl.proc != nil {
		cl.costs = append(cl.costs, cost{id, items, bytes})
		return
	}
	cl.visit(id, items, bytes)
}

// settle pays the visits pay held back: one on the client itself,
// several each on a branch of its own.
func (cl *Client) settle() {
	if len(cl.costs) == 1 {
		cl.visit(cl.costs[0].id, cl.costs[0].items, cl.costs[0].bytes)
	} else if len(cl.costs) > 1 {
		cl.branches(len(cl.costs), func(sub *Client, i int) {
			c := sub.parent.costs[i]
			sub.visit(c.id, c.items, c.bytes)
		})
	}
	cl.costs = cl.costs[:0]
}

// grow is slices.Grow: dst with room for n more elements. A caller that
// keeps its buffer between reads (the executor) has the room after its
// first, and the reallocation is out of line, so a read into warm
// buffers allocates nothing (TestImmediateRequestSetsBuildNoClosure).
func grow[T any](dst []T, n int) []T {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	return regrow(dst, n)
}

//go:noinline
func regrow[T any](dst []T, n int) []T { return slices.Grow(dst, n) }

// clip clips [start, end) to partition p's bounds. Since replicas hold
// whole partitions this is equivalent to the raw bounds, but clipping
// keeps per-partition scans from double-counting items replicated onto
// successor nodes.
func clip(rt *routing, p int, start, end []byte) ([]byte, []byte) {
	lo, hi := rt.bounds(p)
	if lo != nil && (start == nil || bytes.Compare(lo, start) > 0) {
		start = lo
	}
	if hi != nil && (end == nil || bytes.Compare(hi, end) < 0) {
		end = hi
	}
	return start, end
}

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
