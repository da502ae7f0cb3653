package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"piql/internal/sim"
)

// TestErrorChainsRoundTrip pins the error taxonomy the engine's retry
// classification depends on: every transient kvstore error — node
// down, fenced, retry budget exhausted — must satisfy
// errors.Is(err, ErrTransient) through arbitrary %w wrapping, and
// errors.As must recover the typed cause with its fields intact
// (ErrFenceExhausted preserves its final attempt's error in Last).
// Semantic errors must never classify as transient.
func TestErrorChainsRoundTrip(t *testing.T) {
	down := &ErrNodeDown{Node: 4, Partitioned: true}
	fenced := &ErrFenced{Node: 2, Claimed: 3, Need: 5, Owner: true}
	exhausted := &ErrFenceExhausted{Op: "testandset", Attempts: 64, Last: down}

	for _, err := range []error{down, fenced, exhausted} {
		wrapped := fmt.Errorf("exec: degraded read: %w", err)
		if !errors.Is(wrapped, ErrTransient) {
			t.Errorf("%T does not unwrap to ErrTransient through a wrap: %v", err, wrapped)
		}
	}

	// ErrFenceExhausted chains through Last: the root cause survives.
	var nd *ErrNodeDown
	if !errors.As(fmt.Errorf("op: %w", exhausted), &nd) {
		t.Fatal("wrapped ErrFenceExhausted does not expose its *ErrNodeDown cause")
	}
	if nd.Node != 4 || !nd.Partitioned {
		t.Errorf("cause fields lost through the chain: %+v", nd)
	}
	var ex *ErrFenceExhausted
	if !errors.As(fmt.Errorf("op: %w", exhausted), &ex) || ex.Op != "testandset" || ex.Attempts != 64 {
		t.Errorf("wrapped ErrFenceExhausted not recoverable with fields: %+v", ex)
	}

	// Budget exhaustion with no recorded cause is still transient.
	if !errors.Is(&ErrFenceExhausted{Op: "write"}, ErrTransient) {
		t.Error("ErrFenceExhausted with nil Last must still classify as transient")
	}
	if errors.Is(errors.New("kvstore: malformed envelope"), ErrTransient) {
		t.Error("a semantic error must not classify as transient")
	}
}

// TestApplyRetryBudgetExhaustsUnderRoutingFlips drives Apply's
// revalidation loop past writeRetryBudget: a second process republishes
// the routing table every 10 µs of virtual time, so every attempt of
// the Put finds the table changed under it. The Put must then fail as a
// typed transient error, *ErrFenceExhausted for "write" after the whole
// budget, never as an untyped one the retry layer would take for fatal.
func TestApplyRetryBudgetExhaustsUnderRoutingFlips(t *testing.T) {
	env := sim.NewEnv()
	c := New(Config{Nodes: 2, ReplicationFactor: 2, Seed: 1}, env)
	var err error
	done := false
	env.Spawn(func(p *sim.Proc) {
		err = c.NewClient(p).Put([]byte("k"), []byte("v"))
		done = true
	})
	env.Spawn(func(p *sim.Proc) {
		for !done {
			old := c.routing.Load()
			c.routing.Store(&routing{epoch: old.epoch + 1, splits: old.splits, owners: old.owners})
			p.Sleep(10 * time.Microsecond)
		}
	})
	env.Run(0)
	env.Stop()

	var ex *ErrFenceExhausted
	if !errors.As(err, &ex) {
		t.Fatalf("Put under routing flips returned %v, want *ErrFenceExhausted", err)
	}
	if ex.Op != "write" || ex.Attempts != writeRetryBudget+1 {
		t.Errorf("exhaustion is %+v, want Op write after %d attempts", ex, writeRetryBudget+1)
	}
	if !errors.Is(err, ErrTransient) {
		t.Errorf("exhausted write is not transient: %v", err)
	}
}

// TestLeaseExpiryUnwedgesTestAndSet: killing a key's authoritative
// primary wedges conditional ops on it — inside the lease window no
// other node may decide, so TestAndSet burns its retry budget and
// returns *ErrFenceExhausted (no decision, value untouched). Once the
// lease lapses, Rebalance reclaims the range onto live nodes and the
// same operation succeeds. The dead node's eventual restart must not
// disturb the converged state. A rebalance inside the lease moves
// nothing. The cluster is simulated, so the lease runs out on the
// virtual clock: the wedge, the wait and the reclaim take no wall time.
func TestLeaseExpiryUnwedgesTestAndSet(t *testing.T) {
	// The lease outlasts the wedged operation's retry budget (64
	// backoffs of 1..64 ms, about 2 s), so the wedge is seen inside it.
	const lease = 5 * time.Second
	env := sim.NewEnv()
	c := New(Config{Nodes: 4, ReplicationFactor: 2, Seed: 5, LeaseDuration: lease}, env)
	k := []byte("lease-key")
	var failure error
	env.Spawn(func(p *sim.Proc) {
		failure = func() error {
			cl := c.NewClient(p)
			if ok, err := cl.TestAndSet(k, nil, []byte("v0")); err != nil || !ok {
				return fmt.Errorf("seed swap: ok=%v err=%v", ok, err)
			}
			// Settle the table first, so a later rebalance moves the key's
			// range only if its primary's lease has lapsed.
			cl.Rebalance()
			rt := c.routing.Load()
			primary := rt.owners[rt.partitionOf(k)][0]
			c.Kill(primary)
			killed := p.Now()

			// Wedged: the budget drains against the unreachable primary.
			ok, err := cl.TestAndSet(k, []byte("v0"), []byte("v1"))
			if err == nil {
				return fmt.Errorf("TestAndSet decided (ok=%v) against a dead primary inside its lease window", ok)
			}
			if wedged := p.Now() - killed; wedged >= lease {
				return fmt.Errorf("the wedged TestAndSet took %v, past the %v lease", wedged, lease)
			}
			var ex *ErrFenceExhausted
			if !errors.As(err, &ex) {
				return fmt.Errorf("wedged TestAndSet returned %v, want *ErrFenceExhausted", err)
			}
			var nd *ErrNodeDown
			if !errors.As(ex.Last, &nd) || nd.Node != primary {
				return fmt.Errorf("exhaustion cause is %v, want *ErrNodeDown for node %d", ex.Last, primary)
			}
			if !errors.Is(err, ErrTransient) {
				return fmt.Errorf("wedge error is not transient: %v", err)
			}
			// Inside the lease, a rebalance leaves the range where it is.
			cl.Rebalance()
			rt = c.routing.Load()
			if np := rt.owners[rt.partitionOf(k)][0]; np != primary {
				return fmt.Errorf("a rebalance %v after the kill, inside the lease, moved the key from node %d to %d", p.Now()-killed, primary, np)
			}

			// Lease expiry, then reclaim: the range moves to live nodes.
			p.Sleep(killed + lease + lease/2 - p.Now())
			cl.Rebalance()
			rt = c.routing.Load()
			if np := rt.owners[rt.partitionOf(k)][0]; np == primary {
				return fmt.Errorf("rebalance left the dead node %d as the key's primary", np)
			}
			if ok, err := cl.TestAndSet(k, []byte("v0"), []byte("v1")); err != nil || !ok {
				return fmt.Errorf("TestAndSet still wedged after expiry + reclaim: ok=%v err=%v", ok, err)
			}
			if v, ok := get(cl, k); !ok || !bytes.Equal(v, []byte("v1")) {
				return fmt.Errorf("key holds %q (ok=%v) after the post-reclaim swap, want v1", v, ok)
			}
			c.Restart(primary)
			return nil
		}()
	})
	env.Run(0)
	env.Stop()
	if failure != nil {
		t.Fatal(failure)
	}

	if err := c.AuditConvergence(); err != nil {
		t.Fatal(err)
	}
	if v, ok := get(c.NewClient(nil), k); !ok || !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("restart disturbed the key: %q (ok=%v)", v, ok)
	}
}

// TestCatchUpReplayAndFailoverAreLoadBearing shows that catch-up replay
// and read failover each keep a fault from what reads observe, with no
// waiting: every row injects one fault into a 2-node, RF 2 cluster and
// takes 400 point reads, none of which may see it. The mechanism off is
// the mutant ledger's business (cmd/piql-vet/testdata/mutants.ledger):
// without replay some of these reads return a stale value
// (replay-off-unit), without failover an *ErrNodeDown
// (failover-off-unit), and `make mutants` fails if this test passes
// either mutant.
func TestCatchUpReplayAndFailoverAreLoadBearing(t *testing.T) {
	k := []byte("k")
	cases := []struct {
		name  string
		fault func(*Cluster, *Client) // after k = v1 is written
		want  string                  // the value a correct read returns
	}{{
		name: "replay",
		fault: func(c *Cluster, cl *Client) {
			c.Partition([]int{0})
			cl.Put(k, []byte("v2")) // queued for node 1
			c.Heal()
		},
		want: "v2",
	}, {
		name:  "failover",
		fault: func(c *Cluster, _ *Client) { c.Kill(1) },
		want:  "v1",
	}}
	for _, tc := range cases {
		t.Run(tc.name+"/on=true", func(t *testing.T) {
			c := New(Config{Nodes: 2, ReplicationFactor: 2, Seed: 3}, nil)
			cl := c.NewClient(nil)
			if err := cl.Put(k, []byte("v1")); err != nil {
				t.Fatal(err)
			}
			tc.fault(c, cl)
			seen := map[string]int{}
			for i := 0; i < 400; i++ {
				v, _, _, err := cl.Read(k, ReadOpts{})
				var nd *ErrNodeDown
				switch {
				case errors.As(err, &nd):
					seen["down"]++
				case err != nil:
					t.Fatalf("read %d: %v", i, err)
				case string(v) != tc.want:
					seen["stale"]++
				}
			}
			if len(seen) != 0 {
				t.Fatalf("reads observed the fault: %v of 400", seen)
			}
		})
	}
}

// TestRejoinPurgesRangesMovedWhileDown: node 1 is down while every key
// is written and while a rebalance moves part of its keyspace away, so
// its catch-up queue holds writes for ranges it no longer owns. Replay
// applies the whole queue; rejoin's self-clean is what enforces
// ownership. No node may hold a live key outside its ranges, every key
// must read back, and the replicas must converge.
func TestRejoinPurgesRangesMovedWhileDown(t *testing.T) {
	c := New(Config{Nodes: 3, ReplicationFactor: 2, Seed: 17}, nil)
	cl := c.NewClient(nil)
	const n = 200
	c.Kill(1)
	for i := 0; i < n; i++ {
		if err := cl.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Rebalance()
	rt := c.routing.Load()
	lost := 0
	for i := 0; i < n; i++ {
		if !rt.isOwner(rt.partitionOf(key(i)), 1) {
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("the rebalance moved nothing off node 1: the scenario exercises no ownership change")
	}
	c.Restart(1)
	if q, r := c.CatchUpsQueued(), c.CatchUpsReplayed(); q == 0 || r != q {
		t.Fatalf("catch-ups queued %d, replayed %d: want every queued one replayed", q, r)
	}

	assertOwnedOnly(t, c)
	for i := 0; i < n; i++ {
		if v, ok := get(cl, key(i)); !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("key %d reads %q (present=%v), want %q", i, v, ok, val(i))
		}
	}
	if err := c.AuditConvergence(); err != nil {
		t.Fatal(err)
	}
}
