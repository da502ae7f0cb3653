package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// casTransition is one accepted TestAndSet recorded by a racing writer:
// the swap moved key from expect ("" = absent) to update. Update values
// are unique across the run, so the accepted transitions of a
// linearizable register form exactly one chain from the initial state —
// any double-accept shows up as two transitions sharing an expect
// value, and any lost accepted swap breaks the chain or the final read.
type casTransition struct {
	key, expect, update string
}

// checkCASLinear replays the accepted transitions of one key as a
// serial model: starting from absent, each accepted swap must consume
// the exact state the previous one produced, every acceptance must be
// part of the chain, and the store's final value must be the chain's
// tail.
func checkCASLinear(t *testing.T, key string, accepted []casTransition, finalVal string, finalOK bool) {
	t.Helper()
	chain := make(map[string]casTransition, len(accepted))
	for _, tr := range accepted {
		if prev, dup := chain[tr.expect]; dup {
			t.Fatalf("key %s: double accept — swaps to %q and %q both accepted from state %q",
				key, prev.update, tr.update, tr.expect)
		}
		chain[tr.expect] = tr
	}
	cur := "" // keys start absent
	steps := 0
	for {
		tr, ok := chain[cur]
		if !ok {
			break
		}
		cur = tr.update
		steps++
	}
	if steps != len(chain) {
		t.Fatalf("key %s: %d accepted swaps but the serial chain explains only %d — an accept observed a state no serial order produces",
			key, len(chain), steps)
	}
	if cur == "" {
		if finalOK {
			t.Fatalf("key %s: chain ends absent but store holds %q", key, finalVal)
		}
		return
	}
	if !finalOK || finalVal != cur {
		t.Fatalf("key %s: lost accepted swap — chain ends at %q but store holds %q (present=%v)",
			key, cur, finalVal, finalOK)
	}
}

// TestTestAndSetLinearizableAcrossRebalance is the tentpole proof:
// writers race TestAndSet on a handful of shared keys — each swap
// expecting the value it just read, installing a globally unique one —
// while the cluster runs repeated chunked rebalances and churn writes
// keep the split points moving. The serial model checker then confirms
// every outcome: exactly one accepted swap per state (no double-accepts
// across the epoch flip, the anomaly PR 3 documented) and a final value
// equal to the chain's tail (no accepted swap lost to a copy or a
// retired owner).
func TestTestAndSetLinearizableAcrossRebalance(t *testing.T) {
	c := New(Config{Nodes: 8, ReplicationFactor: 2, Seed: 11, MoveChunkKeys: 64}, nil)
	loader := c.NewClient(nil)
	for i := 0; i < 3000; i++ {
		loader.Put(key(i), val(i))
	}
	c.Rebalance() // initial spread

	const writers = 8
	const casKeys = 5
	casKey := func(i int) []byte { return []byte(fmt.Sprintf("cas-shared-%02d", i)) }

	var mu sync.Mutex
	var accepted []casTransition
	var stop, totalOps atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := c.NewClient(nil)
			rnd := rand.New(rand.NewSource(int64(g)*104729 + 1))
			for i := 0; stop.Load() == 0; i++ {
				totalOps.Add(1)
				k := casKey(rnd.Intn(casKeys))
				cur, _ := get(cl, k) // nil = absent, the initial state
				up := []byte(fmt.Sprintf("w%02d-%07d", g, i))
				swapped, err := cl.TestAndSet(k, cur, up)
				if err != nil {
					t.Errorf("writer %d: TestAndSet: %v", g, err)
					return
				}
				if swapped {
					mu.Lock()
					accepted = append(accepted, casTransition{string(k), string(cur), string(up)})
					mu.Unlock()
				}
				// Churn the bulk keyspace so every rebalance recomputes
				// genuinely different splits and the shared keys keep
				// changing owners.
				ck := key(rnd.Intn(3000))
				if rnd.Intn(3) == 0 {
					cl.Delete(ck)
				} else {
					cl.Put(ck, val(i))
				}
			}
		}(g)
	}

	waitOps := func(target int64) {
		for totalOps.Load() < target {
			time.Sleep(100 * time.Microsecond)
		}
	}
	waitOps(500)
	const rebalances = 7 // the issue demands >= 6 under racing conditional writers
	for i := 0; i < rebalances; i++ {
		c.Rebalance()
		waitOps(totalOps.Load() + 400)
	}
	stop.Store(1)
	wg.Wait()

	if got := c.Epoch(); got != int64(2*(rebalances+1)) {
		t.Fatalf("epoch = %d after %d rebalances, want %d", got, rebalances+1, 2*(rebalances+1))
	}
	byKey := make(map[string][]casTransition)
	for _, tr := range accepted {
		byKey[tr.key] = append(byKey[tr.key], tr)
	}
	audit := c.NewClient(nil)
	for i := 0; i < casKeys; i++ {
		k := casKey(i)
		v, ok := get(audit, k)
		checkCASLinear(t, string(k), byKey[string(k)], string(v), ok)
	}
	t.Logf("%d accepted swaps over %d ops, %d fence rejects, epoch %d",
		len(accepted), totalOps.Load(), c.FenceRejects(), c.Epoch())
}

// TestTestAndSetEpochFencing pins the node-level fence: after a
// rebalance reshapes ownership, a conditional op claiming a stale epoch
// is rejected with ErrFenced by a primary that *gained* its range, any
// node without a covering lease rejects outright — the decision is
// never made — and a primary whose lease already covered the whole
// range keeps its old epoch, so stale claims there (same serialization
// point either way) are not spuriously fenced. The public TestAndSet
// absorbs fences by retrying under the fresh table.
func TestTestAndSetEpochFencing(t *testing.T) {
	c, cl := newImmediate(4, 2)
	for i := 0; i < 200; i++ {
		cl.Put(key(i), val(i))
	}
	c.Rebalance() // epoch 0 -> 2: partitions split; nodes 1..3 gain leases

	rt := c.routing.Load()
	// A key in a partition whose primary is not node 0: that primary
	// held no lease before the flip, so its lease epoch is rt.epoch.
	ki := -1
	for i := 0; i < 200; i++ {
		if rt.partitionOf(key(i)) != 0 {
			ki = i
			break
		}
	}
	if ki < 0 {
		t.Fatal("rebalance produced a single partition; cannot probe a gained lease")
	}
	k := key(ki)
	ids := c.replicaNodes(rt.partitionOf(k))
	primary := c.nodes[ids[0]]

	// Stale claim at a primary that gained the range: fenced, not
	// decided.
	_, ok, err := primary.testAndSet(k, 0, nil, []byte("x"), 1)
	var fenced *ErrFenced
	if ok || !errors.As(err, &fenced) {
		t.Fatalf("stale-epoch testAndSet = (%v, %v), want fenced", ok, err)
	}
	if !fenced.Owner || fenced.Need != rt.epoch {
		t.Fatalf("fence = %+v, want owner with lease epoch %d", fenced, rt.epoch)
	}
	// Node 0 was primary of everything at epoch 0 and kept partition 0,
	// a sub-range of its old lease: the epoch is preserved, so an
	// in-flight conditional op still claiming the pre-flip table is not
	// spuriously fenced — node 0 serializes those keys either way.
	k0 := key(0)
	if p0 := rt.partitionOf(k0); c.replicaNodes(p0)[0] == 0 {
		if got := c.nodes[0].leases.Load().find(k0); got == nil || got.epoch != 0 {
			t.Fatalf("node 0 lease for retained sub-range = %+v, want preserved epoch 0", got)
		}
		_, ok, err := c.nodes[0].testAndSet(k0, 0, val(0), val(0), 1)
		if !ok || err != nil {
			t.Fatalf("old-epoch claim on retained range = (%v, %v), want decided", ok, err)
		}
	}
	// A non-primary replica holds no lease for the key at all.
	_, ok, err = c.nodes[ids[1]].testAndSet(k, rt.epoch, nil, []byte("x"), 1)
	if ok || err == nil || !errors.As(err, &fenced) || fenced.Owner {
		t.Fatalf("replica testAndSet = (%v, %v), want ownerless fence", ok, err)
	}
	if c.FenceRejects() != 0 {
		t.Fatalf("node-level probes must not count client retries, got %d", c.FenceRejects())
	}

	// A current claim decides; the value was untouched by the fenced
	// attempts above.
	if got, _ := get(cl, k); !bytes.Equal(got, val(ki)) {
		t.Fatalf("fenced attempts mutated the store: %q", got)
	}
	if swapped, err := cl.TestAndSet(k, val(ki), []byte("swapped")); err != nil || !swapped {
		t.Fatalf("current-epoch TestAndSet = (%v, %v), want accepted", swapped, err)
	}
	if got, _ := get(cl, k); !bytes.Equal(got, []byte("swapped")) {
		t.Fatalf("accepted swap not visible: %q", got)
	}
}

// TestRebalanceChunkedCopy proves the copy really proceeds in bounded
// windows (the hook sees chunk boundaries) and that chunking loses
// nothing under a concurrent writer fleet.
func TestRebalanceChunkedCopy(t *testing.T) {
	c := New(Config{Nodes: 6, ReplicationFactor: 2, Seed: 3, MoveChunkKeys: 16}, nil)
	cl := c.NewClient(nil)
	for i := 0; i < 1500; i++ {
		cl.Put(key(i), val(i))
	}
	var chunks atomic.Int64
	c.chunkHook = func(mv *move, next []byte) { chunks.Add(1) }
	c.Rebalance()
	if chunks.Load() == 0 {
		t.Fatal("no chunk boundaries observed with MoveChunkKeys=16 over 1500 keys")
	}

	// Writer fleet across further chunked rebalances.
	var stop atomic.Int64
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := c.NewClient(nil)
			model := make(map[string][]byte)
			mykey := func(i int) []byte { return []byte(fmt.Sprintf("cw%02d-%05d", g, i)) }
			for i := 0; stop.Load() == 0; i++ {
				k := mykey(i % 150)
				v := []byte(fmt.Sprintf("v-%06d", i))
				if i%5 == 4 {
					w.Delete(k)
					delete(model, string(k))
				} else {
					w.Put(k, v)
					model[string(k)] = v
				}
			}
			for ks, want := range model {
				if got, ok := get(w, []byte(ks)); !ok || !bytes.Equal(got, want) {
					select {
					case errs <- fmt.Errorf("writer %d: key %q = %q (present=%v), want %q", g, ks, got, ok, want):
					default:
					}
					return
				}
			}
		}(g)
	}
	for i := 0; i < 4; i++ {
		c.Rebalance()
	}
	stop.Store(1)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		if got, ok := get(cl, key(i)); !ok || !bytes.Equal(got, val(i)) {
			t.Fatalf("key %d = %q (present=%v) after chunked rebalances", i, got, ok)
		}
	}
}

// TestRebalanceDeleteInEarlierChunkNoResurrect deletes keys from chunks
// whose copy has already landed, while later chunks of the same move are
// still copying. A retired chunk records no tombstone — the delete must
// stay deleted because it removes the key from the destinations
// directly and nothing rescans a finished chunk. Every replica of every
// node is checked, not just the routed read path.
func TestRebalanceDeleteInEarlierChunkNoResurrect(t *testing.T) {
	c := New(Config{Nodes: 4, ReplicationFactor: 2, Seed: 9, MoveChunkKeys: 8}, nil)
	cl := c.NewClient(nil)
	const n = 400
	for i := 0; i < n; i++ {
		cl.Put(key(i), val(i))
	}
	gone := make(map[int]bool)
	// The hook runs on the rebalance goroutine between chunks: delete one
	// still-live key from the part of the move the copy has finished.
	hooker := c.NewClient(nil)
	c.chunkHook = func(mv *move, next []byte) {
		for i := 0; i < n; i++ {
			if gone[i] {
				continue
			}
			k := key(i)
			if mv.covers(k) && bytes.Compare(k, next) < 0 {
				hooker.Delete(k)
				gone[i] = true
				return
			}
		}
	}
	c.Rebalance()
	if len(gone) == 0 {
		t.Fatal("hook never found a copied key to delete — chunking did not engage")
	}
	for i := 0; i < n; i++ {
		got, ok := get(cl, key(i))
		if gone[i] {
			if ok {
				t.Fatalf("deleted key %d resurrected by a later chunk: %q", i, got)
			}
			for id, nd := range c.nodes {
				env, _ := nd.getRaw(key(i))
				if v, held := live(env); held {
					t.Fatalf("deleted key %d survives on node %d as %q", i, id, v)
				}
			}
			continue
		}
		if !ok || !bytes.Equal(got, val(i)) {
			t.Fatalf("key %d = %q (present=%v) after chunked rebalance", i, got, ok)
		}
	}
}
