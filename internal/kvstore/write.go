package kvstore

import (
	"errors"
	"slices"
)

// The write path of Client: plain versioned writes (Put, Delete,
// PutStamped) and the linearizable conditional write (TestAndSet).

// Put stores value under key on every replica, synchronously (the
// replicas in parallel in simulated mode). The write is
// stamped from the key's primary clock, so racing Puts/Deletes from
// any number of clients converge every replica to the same winner.
// An outage never fails a write: a replica that is down gets the
// envelope queued as a versioned catch-up and replays it on rejoin, so
// an acknowledged write survives it. The one error is
// *ErrFenceExhausted, from a rebalance storm that outlasted
// writeRetryBudget (see writeStamped).
func (cl *Client) Put(key, value []byte) error {
	return cl.writeStamped(key, value, false, nil)
}

// Delete removes key from every replica by writing a versioned
// tombstone (swept after the tombstone-GC grace period), so a delete
// racing an older Put wins on every replica regardless of arrival
// order. It fails only as Put does.
func (cl *Client) Delete(key []byte) error {
	return cl.writeStamped(key, nil, true, nil)
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
func (cl *Client) PutStamped(key, value []byte, ver Version) error {
	return cl.writeStamped(key, value, false, &ver)
}

// writeRetryBudget bounds the routing-revalidation loop in
// writeStamped: the write re-applies itself only while rebalances keep
// flipping the table mid-operation, so the budget is only ever
// approached under a pathological rebalance storm — at which point the
// write (already applied under some table) stops retrying and returns
// a *ErrFenceExhausted instead of spinning forever.
const writeRetryBudget = 64

// fenceRetryBudget bounds how many times TestAndSet retries after an
// epoch-fencing reject or an unreachable primary before it gives up
// with *ErrFenceExhausted.
const fenceRetryBudget = 64

// writeStamped routes one versioned put/delete. Unpinned writes (pin ==
// nil) are stamped from the key's primary clock — the node that orders
// the key's writes; observe-on-apply keeps the order intact across
// fail-overs — falling back to a cluster barrier stamp when the whole
// replica set is unreachable. The envelope is built once and applied
// with put-if-newer on every target — current replicas and the
// destinations of any in-flight move covering the key — and the
// operation retries (bounded by writeRetryBudget) if the routing table
// changed while it ran, so a concurrent rebalance can never strand it
// on a node that is no longer the key's owner.
// Re-application is naturally idempotent: the same envelope applied
// twice is a no-op.
func (cl *Client) writeStamped(key, val []byte, del bool, pin *Version) error {
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
			return nil
		}
		if attempt >= writeRetryBudget {
			return &ErrFenceExhausted{Op: "write", Attempts: attempt + 1, Last: ErrTransient}
		}
	}
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

// writeUnder applies one envelope under a specific routing table. Down
// targets get the envelope queued for catch-up replay instead of
// applied (applyOrQueue); the visit is paid either way — the attempt
// is part of the operation's cost — and the replicas' visits are one
// concurrent set.
func (cl *Client) writeUnder(rt *routing, key, env []byte) {
	ids := rt.owners[rt.partitionOf(key)]
	for _, id := range ids {
		cl.c.applyOrQueue(id, key, env)
		cl.pay(true, id, 1, len(key))
	}
	cl.settle()
	cl.doubleApply(coveringMove(rt, key), key, env, ids)
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
	return false, &ErrFenceExhausted{Op: "testandset", Attempts: fenceRetryBudget, Last: last}
}

// FenceRetries returns how many times this client's conditional
// operations were fenced and retried under a fresher routing table.
func (cl *Client) FenceRetries() int64 { return cl.fenceRetries }
