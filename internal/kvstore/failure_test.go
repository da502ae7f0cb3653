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

// TestQuorumReadBoundsStaleness is the staleness-bound acceptance test
// for quorum reads: with RF=2 and one replica recovered stale (its
// catch-ups held back), an R=1 read demonstrably CAN return the
// pre-outage value, while an R=2 read never does — the newest envelope
// among the quorum wins, and the read repairs the stale replica as a
// side effect. While the replica is still partitioned, an R=2 read
// refuses with a typed transient error instead of silently degrading.
func TestQuorumReadBoundsStaleness(t *testing.T) {
	c := New(Config{Nodes: 2, ReplicationFactor: 2, Seed: 3}, nil)
	c.SetCatchUpReplay(false) // hold the recovered replica stale
	cl := c.NewClient(nil)
	k := []byte("quorum-key")

	cl.Put(k, []byte("v1"))
	c.Partition([]int{0}) // node 1 unreachable
	cl.Put(k, []byte("v2"))
	if c.CatchUpsQueued() == 0 {
		t.Fatal("the acked write was not queued for the partitioned replica")
	}

	// Quorum short: R=2 with one replica away makes no decision.
	if _, _, _, err := cl.Read(k, ReadOpts{From: Quorum(2)}); err == nil {
		t.Fatal("R=2 read with one replica partitioned returned no error")
	} else if !errors.Is(err, ErrTransient) {
		t.Fatalf("quorum-short error is not transient: %v", err)
	}

	c.Heal() // replay disabled: node 1 rejoins serving v1

	// R=1 carries no staleness bound: a uniform pick lands on the stale
	// replica within a few draws.
	sawStale, sawFresh := false, false
	for i := 0; i < 400 && !(sawStale && sawFresh); i++ {
		v, ok := get(cl, k)
		if !ok {
			t.Fatal("key read as absent")
		}
		switch string(v) {
		case "v1":
			sawStale = true
		case "v2":
			sawFresh = true
		default:
			t.Fatalf("impossible value %q", v)
		}
	}
	if !sawStale {
		t.Fatal("R=1 reads never observed the stale replica — the scenario exercises nothing")
	}
	if !sawFresh {
		t.Fatal("R=1 reads never observed the fresh replica")
	}

	// R=2 is never stale: both replicas are read, v2's newer version wins.
	for i := 0; i < 50; i++ {
		v, _, ok, err := cl.Read(k, ReadOpts{From: Quorum(2)})
		if err != nil || !ok || !bytes.Equal(v, []byte("v2")) {
			t.Fatalf("R=2 read %d returned %q (ok=%v, err=%v), want v2 always", i, v, ok, err)
		}
	}

	// The quorum read read-repaired the stale replica in passing...
	if v, _ := c.nodes[1].get(k); !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("stale replica not read-repaired: holds %q", v)
	}
	// ...so even R=1 reads are fresh from here on.
	for i := 0; i < 50; i++ {
		if v, ok := get(cl, k); !ok || !bytes.Equal(v, []byte("v2")) {
			t.Fatalf("post-repair R=1 read returned %q (ok=%v), want v2", v, ok)
		}
	}
	if err := c.AuditConvergence(); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseExpiryUnwedgesTestAndSet: killing a key's authoritative
// primary wedges conditional ops on it — inside the lease window no
// other node may decide, so TestAndSet burns its retry budget and
// returns *ErrFenceExhausted (no decision, value untouched). Once the
// lease lapses, Rebalance reclaims the range onto live nodes and the
// same operation succeeds. The dead node's eventual restart must not
// disturb the converged state.
func TestLeaseExpiryUnwedgesTestAndSet(t *testing.T) {
	c := New(Config{Nodes: 4, ReplicationFactor: 2, Seed: 5,
		LeaseDuration: 60 * time.Millisecond}, nil)
	cl := c.NewClient(nil)
	k := []byte("lease-key")
	if ok, err := cl.TestAndSet(k, nil, []byte("v0")); err != nil || !ok {
		t.Fatalf("seed swap: ok=%v err=%v", ok, err)
	}

	rt := c.routing.Load()
	primary := rt.owners[rt.partitionOf(k)][0]
	c.Kill(primary)

	// Wedged: the budget drains against the unreachable primary.
	ok, err := cl.TestAndSet(k, []byte("v0"), []byte("v1"))
	if err == nil {
		t.Fatalf("TestAndSet decided (ok=%v) against a dead primary inside its lease window", ok)
	}
	var ex *ErrFenceExhausted
	if !errors.As(err, &ex) {
		t.Fatalf("wedged TestAndSet returned %v, want *ErrFenceExhausted", err)
	}
	var nd *ErrNodeDown
	if !errors.As(ex.Last, &nd) || nd.Node != primary {
		t.Fatalf("exhaustion cause is %v, want *ErrNodeDown for node %d", ex.Last, primary)
	}
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("wedge error is not transient: %v", err)
	}

	// Lease expiry, then reclaim: the range moves to live nodes.
	time.Sleep(c.cfg.LeaseDuration + c.cfg.LeaseDuration/2)
	c.Rebalance()
	rt = c.routing.Load()
	if np := rt.owners[rt.partitionOf(k)][0]; np == primary {
		t.Fatalf("rebalance left the dead node %d as the key's primary", np)
	}
	if ok, err := cl.TestAndSet(k, []byte("v0"), []byte("v1")); err != nil || !ok {
		t.Fatalf("TestAndSet still wedged after expiry + reclaim: ok=%v err=%v", ok, err)
	}
	if v, ok := get(cl, k); !ok || !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("key holds %q (ok=%v) after the post-reclaim swap, want v1", v, ok)
	}

	c.Restart(primary)
	if err := c.AuditConvergence(); err != nil {
		t.Fatal(err)
	}
	if v, ok := get(cl, k); !ok || !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("restart disturbed the key: %q (ok=%v)", v, ok)
	}
}

// TestAllRepairLaggedThenKilledReplica: an AllRepair read against a replica
// set where the lagged replica has crashed must serve the newest value
// from the live primary without error, skip the unreachable replica,
// and leave convergence to catch-up replay at restart — the catch-up
// that fires mid-outage queues instead of applying to the dead node.
func TestAllRepairLaggedThenKilledReplica(t *testing.T) {
	env := sim.NewEnv()
	lag := 500 * time.Millisecond
	c := New(Config{Nodes: 2, ReplicationFactor: 2, Seed: 13,
		AsyncReplication: true, ReplicaLag: lag}, env)
	k := []byte("repair-dead-key")

	env.Spawn(func(p *sim.Proc) {
		cl := c.NewClient(p)
		cl.Put(k, []byte("v1"))
		p.Sleep(2 * lag) // v1 fully replicated
		cl.Put(k, []byte("v2"))
		c.Kill(1) // the lagged replica dies before v2's catch-up fires
		v, _, ok, err := cl.Read(k, ReadOpts{From: AllRepair})
		if !ok || !bytes.Equal(v, []byte("v2")) {
			panic(fmt.Sprintf("AllRepair read with a dead replica returned %q (ok=%v), want v2 from the live primary", v, ok))
		}
		if err != nil {
			panic(fmt.Sprintf("AllRepair read failed with %v despite a reachable replica serving it", err))
		}
		p.Sleep(2 * lag) // v2's catch-up fires mid-outage: must queue
		c.Restart(1)     // replay converges the replica
	})
	env.Run(0)
	env.Stop()

	if c.CatchUpsQueued() == 0 {
		t.Fatal("the mid-outage catch-up was not queued — it applied to a killed node")
	}
	if v, _ := c.nodes[1].get(k); !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("replica not converged after restart: holds %q", v)
	}
	if err := c.AuditConvergence(); err != nil {
		t.Fatal(err)
	}
}
