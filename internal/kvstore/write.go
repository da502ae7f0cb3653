package kvstore

import (
	"errors"
	"slices"
)

// The write path of Client: the set-shaped versioned write (Apply, and
// Put and Delete over it) and the linearizable conditional write
// (TestAndSet).

// Put stores value under key on every replica, as a set of one (see
// Apply). The one error is *ErrFenceExhausted.
func (cl *Client) Put(key, value []byte) error {
	return cl.Apply(&WriteSet{Keys: [][]byte{key}, Vals: [][]byte{value}})
}

// Delete removes key from every replica by writing a versioned
// tombstone (swept after the tombstone-GC grace period), so a delete
// racing an older Put wins on every replica regardless of arrival
// order. It fails only as Put does.
func (cl *Client) Delete(key []byte) error {
	return cl.Apply(&WriteSet{Keys: [][]byte{key}, Del: true})
}

// StampVersion draws a snapshot-barrier version: a timestamp strictly
// newer than every stamp any node has issued, which every node then
// observes — so every write that *starts* after this returns is
// stamped strictly newer. The index backfill uses it as its snapshot
// stamp (draw, drain in-flight writers, scan, replay at the stamp);
// per-write stamping goes through the key's primary clock instead
// (see Apply) and does not pay the all-nodes round.
func (cl *Client) StampVersion() Version {
	return Version{TS: cl.c.barrierStamp(), Client: cl.id}
}

// WriteSet is one write: every one of Keys put, with the value of the
// same index in Vals (an empty value when Vals is nil, as index entries
// are) or, under Del, deleted. A nil At stamps each key from its
// primary clock. A non-nil At pins every key to *At instead, so the set
// loses to every write stamped after *At was drawn: a bulk writer
// replaying data "as of" a snapshot (the index backfill) stamps
// everything at the snapshot version, and any live write that raced it,
// a delete included, outranks the replay on every replica.
type WriteSet struct {
	Keys, Vals [][]byte
	Del        bool
	At         *Version
}

// writeRetryBudget bounds the routing-revalidation loop in Apply: the
// set re-applies itself only while rebalances keep flipping the table
// mid-operation, so the budget is only ever approached under a
// pathological rebalance storm — at which point the set (already
// applied under some table) stops retrying and returns a
// *ErrFenceExhausted instead of spinning forever.
const writeRetryBudget = 64

// fenceRetryBudget bounds how many times TestAndSet retries after an
// epoch-fencing reject or an unreachable primary before it gives up
// with *ErrFenceExhausted.
const fenceRetryBudget = 64

// Apply writes one set in one call. Every key reaches every owner
// synchronously, and the set's owner visits, keys × replicas, are one
// concurrent set. Each key is stamped from its primary clock (the node
// that orders the key's writes; observe-on-apply keeps the order across
// fail-overs), or from a cluster barrier when its whole replica set is
// unreachable, unless At pins it. Its envelope is built once and applied
// with put-if-newer on the owners, then on the destinations of any
// in-flight move covering the key, and the set re-applies itself
// (bounded by writeRetryBudget) if the routing table changed while it
// ran, so a rebalance can never strand a key on a former owner.
//
// An outage never fails a write: an owner that is down gets the envelope
// queued as a versioned catch-up and replays it on rejoin, and the visit
// is paid either way. The one error is *ErrFenceExhausted, from a
// rebalance storm that outlasted writeRetryBudget. An empty set costs
// nothing.
func (cl *Client) Apply(set *WriteSet) error {
	if len(set.Keys) == 0 {
		return nil
	}
	var small [4][]byte // a set's envelopes, on the stack up to four keys
	envs := append(small[:0], make([][]byte, len(set.Keys))...)
	for attempt := 0; ; attempt++ {
		rt := cl.c.beginOp()
		for i, key := range set.Keys {
			if envs[i] == nil {
				envs[i] = cl.envelope(rt, set, i)
			}
			for _, id := range rt.owners[rt.partitionOf(key)] {
				cl.c.applyOrQueue(id, key, envs[i])
				cl.pay(true, id, 1, len(key))
			}
		}
		cl.settle()
		for i, env := range envs {
			key := set.Keys[i]
			cl.doubleApply(coveringMove(rt, key), key, env, rt.owners[rt.partitionOf(key)])
		}
		settled := cl.c.routing.Load() == rt
		cl.c.endOp(rt)
		if settled {
			return nil
		}
		if attempt >= writeRetryBudget {
			return &ErrFenceExhausted{Op: "write", Attempts: attempt + 1, Last: ErrTransient}
		}
	}
}

// envelope builds the envelope of set's key i, stamped under rt.
func (cl *Client) envelope(rt *routing, set *WriteSet, i int) []byte {
	ver := Version{Client: cl.id}
	if set.At != nil {
		ver = *set.At
	} else {
		ver.TS = cl.stampOn(rt, set.Keys[i])
	}
	var val []byte
	if set.Vals != nil {
		val = set.Vals[i]
	}
	return makeEnvelope(ver, set.Del, val)
}

// stampOn draws a write timestamp from the key's primary clock (first
// reachable owner) under rt, or from a cluster-wide barrier when the
// whole replica set is unreachable.
func (cl *Client) stampOn(rt *routing, key []byte) int64 {
	for _, id := range rt.owners[rt.partitionOf(key)] {
		if cl.c.reachable(id) {
			return cl.c.nodes[id].stamp()
		}
	}
	return cl.c.barrierStamp()
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
// A decision, either way, is final: fencing guarantees no other node
// decided meanwhile, and an accepted swap is never re-applied under a
// newer routing table (the end of the loop says why).
//
// The retry loop is bounded by fenceRetryBudget: when the
// primary is unreachable (crashed mid-lease) or keeps fencing, the
// operation backs off and retries until the budget runs out, then
// returns *ErrFenceExhausted. No decision was made in that case — the
// caller may retry the whole operation once the lease expires and
// Rebalance reclaims the range (or the primary restarts). A (false,
// nil) return is always a genuine test failure, never an availability
// artifact — the exactness the index maintainer's duplicate detection
// depends on.
func (cl *Client) TestAndSet(key, expect, update []byte) (bool, error) {
	var last error
	for attempt := 0; attempt < fenceRetryBudget; attempt++ {
		ok, err := cl.testAndSetOnce(key, expect, update)
		if err != nil {
			// Fenced (stale claim), or the primary is down or died
			// mid-contact. Account a fence and retry under a fresh table
			// — the publish that moved ownership lands at most a few
			// instructions after the fence install.
			var fencedErr *ErrFenced
			if errors.As(err, &fencedErr) {
				cl.c.fenced.Add(1)
				cl.fenceRetries++
			}
			last = err
			cl.backoff(attempt)
			continue
		}
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
	return false, &ErrFenceExhausted{Op: "testandset", Attempts: fenceRetryBudget, Last: last}
}

// testAndSetOnce is one attempt of TestAndSet under one routing claim,
// returned on every exit. An error means the attempt decided nothing.
func (cl *Client) testAndSetOnce(key, expect, update []byte) (bool, error) {
	rt := cl.c.beginOp()
	defer cl.c.endOp(rt)
	p := rt.partitionOf(key)
	ids := rt.owners[p]
	primary := ids[0]
	if !cl.c.reachable(primary) {
		// Dead primary whose lease has not yet expired (Rebalance
		// would have reclaimed the range otherwise): no other node
		// may decide, so back off and retry — a restart or the
		// post-expiry reclaim unwedges the key.
		return false, cl.c.downErr(ids[:1])
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
	return ok, err
}

// FenceRetries returns how many times this client's conditional
// operations were fenced and retried under a fresher routing table.
func (cl *Client) FenceRetries() int64 { return cl.fenceRetries }
