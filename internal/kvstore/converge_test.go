package kvstore

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"piql/internal/sim"
)

// TestHLCMonotonic: timestamps are strictly increasing, including under
// concurrent draws, and never behind the cluster's clock — wall time
// since New for an immediate cluster, virtual time for a simulated one,
// whose stamps are therefore a function of the run alone.
func TestHLCMonotonic(t *testing.T) {
	c := New(Config{Nodes: 1, Seed: 1}, nil)
	nd := c.nodes[0]
	last := nd.stamp()
	for i := 0; i < 10_000; i++ {
		next := nd.stamp()
		if next <= last {
			t.Fatalf("HLC went backwards: %d after %d", next, last)
		}
		last = next
	}
	now := hlcTime(c.clock.now())
	if got := nd.stamp(); got < now {
		t.Fatalf("HLC fell behind the cluster clock: %d vs %d", got, now)
	}

	env := sim.NewEnv()
	sc := New(Config{Nodes: 1, Seed: 1}, env)
	var stamps []int64
	env.Spawn(func(p *sim.Proc) {
		for _, d := range []time.Duration{0, time.Millisecond, 3 * time.Second} {
			p.Sleep(d)
			stamps = append(stamps, sc.nodes[0].stamp())
		}
	})
	env.Run(0)
	// The first stamp is the logical successor of the zero clock; the
	// others are the virtual milliseconds at which they were drawn.
	if want := []int64{1, hlcTime(time.Millisecond), hlcTime(3001 * time.Millisecond)}; !slices.Equal(stamps, want) {
		t.Fatalf("simulated stamps %v, want %v: the HLC is not reading virtual time", stamps, want)
	}

	h := nd.hlc
	const workers, draws = 8, 5_000
	seen := make([]map[int64]struct{}, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := make(map[int64]struct{}, draws)
			for i := 0; i < draws; i++ {
				mine[h.Next(c.clock.now())] = struct{}{}
			}
			seen[w] = mine
		}(w)
	}
	wg.Wait()
	all := make(map[int64]struct{}, workers*draws)
	for _, mine := range seen {
		for ts := range mine {
			if _, dup := all[ts]; dup {
				t.Fatalf("duplicate concurrent timestamp %d", ts)
			}
			all[ts] = struct{}{}
		}
	}
}

// TestEnvelopeRoundtrip pins the version envelope codec.
func TestEnvelopeRoundtrip(t *testing.T) {
	ver := Version{TS: 0x1234_5678_9ABC, Client: 42}
	env := makeEnvelope(ver, false, []byte("payload"))
	if got := envVersion(env); got != ver {
		t.Fatalf("version roundtrip: %+v", got)
	}
	if envIsTombstone(env) {
		t.Fatal("live envelope read as tombstone")
	}
	if !bytes.Equal(envValue(env), []byte("payload")) {
		t.Fatalf("value roundtrip: %q", envValue(env))
	}
	tomb := makeEnvelope(ver, true, nil)
	if !envIsTombstone(tomb) || len(envValue(tomb)) != 0 {
		t.Fatal("tombstone envelope malformed")
	}
	newer := Version{TS: ver.TS, Client: 43}
	if !newer.After(ver) || ver.After(newer) || ver.After(ver) {
		t.Fatal("version ordering broken on client tiebreak")
	}
}

// TestApplyIfNewerConverges: applying the same envelopes in any order
// leaves a node in the same state — the per-key convergence kernel.
func TestApplyIfNewerConverges(t *testing.T) {
	k := []byte("k")
	envs := [][]byte{
		makeEnvelope(Version{TS: 10, Client: 1}, false, []byte("a")),
		makeEnvelope(Version{TS: 20, Client: 2}, true, nil),
		makeEnvelope(Version{TS: 15, Client: 3}, false, []byte("b")),
	}
	orders := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}, {2, 0, 1}}
	for _, order := range orders {
		nd := newNode(9, 1, &clock{born: time.Now()})
		for _, i := range order {
			nd.applyIfNewer(k, envs[i])
		}
		env, _ := nd.getRaw(k)
		if _, ok := live(env); ok {
			t.Fatalf("order %v: tombstone TS=20 did not win", order)
		}
		if ver := envVersion(env); ver != (Version{TS: 20, Client: 2}) {
			t.Fatalf("order %v: final version %+v", order, ver)
		}
	}
}

// assertOwnedOnly fails if any node holds a live key outside the ranges
// the current routing table gives it.
func assertOwnedOnly(t *testing.T, c *Cluster) {
	t.Helper()
	rt := c.routing.Load()
	for id, nd := range c.nodes {
		for _, kv := range nd.scanRaw(nil, nil, nil, 0) {
			if !envIsTombstone(kv.Value) && !rt.isOwner(rt.partitionOf(kv.Key), id) {
				t.Fatalf("node %d holds %q outside its ranges", id, kv.Key)
			}
		}
	}
}

// TestAsyncCatchUpRespectsOwnership: a catch-up is the one write a node
// takes after the fact — queued while it was unreachable, applied when
// it rejoins. On the virtual clock, node 1 is partitioned away while
// every key is written (replica writes fan out as concurrent branches)
// and while a rebalance moves part of its keyspace away, so the heal
// replays a queue that partly targets ranges it no longer owns. A copy
// left on a former owner could be promoted back to owned state by a
// later rebalance after the delete's tombstone was swept, so rejoin must
// leave no live key outside a node's ranges, lose no key, and converge
// the replicas.
func TestAsyncCatchUpRespectsOwnership(t *testing.T) {
	env := sim.NewEnv()
	c := New(Config{Nodes: 3, ReplicationFactor: 2, Seed: 17}, env)
	const n = 200
	var errs []error
	moved := 0
	env.Spawn(func(p *sim.Proc) {
		cl := c.NewClient(p)
		c.Partition([]int{0, 2})
		for i := 0; i < n; i++ {
			if err := cl.Put(key(i), val(i)); err != nil {
				errs = append(errs, err)
			}
		}
		c.Rebalance()
		rt := c.routing.Load()
		for i := 0; i < n; i++ {
			if !rt.isOwner(rt.partitionOf(key(i)), 1) {
				moved++
			}
		}
		c.Heal()
	})
	env.Run(0)
	env.Stop()

	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	if moved == 0 {
		t.Fatal("the rebalance moved nothing off node 1: no catch-up targeted a lost range")
	}
	if q, r := c.CatchUpsQueued(), c.CatchUpsReplayed(); q == 0 || r != q {
		t.Fatalf("catch-ups queued %d, replayed %d: want every queued one replayed", q, r)
	}
	assertOwnedOnly(t, c)
	cl := c.NewClient(nil)
	for i := 0; i < n; i++ {
		if v, ok := get(cl, key(i)); !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("key %d reads %q (present=%v), want %q", i, v, ok, val(i))
		}
	}
	if err := c.AuditConvergence(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncCatchUpKillRestartInterleaving interleaves catch-ups with two
// crashes of node 1 on the virtual clock. First, writes queue for it
// before and after a rebalance moves part of its keyspace away, and it
// restarts. Then it dies again while a third of the keys are deleted and
// the rest overwritten, and restarts once more. Every owner of every key
// must end at the key's last write (a deleted key absent), no node may
// hold a live key outside its ranges, and the replicas must converge.
func TestAsyncCatchUpKillRestartInterleaving(t *testing.T) {
	env := sim.NewEnv()
	c := New(Config{Nodes: 3, ReplicationFactor: 2, Seed: 17}, env)
	const n = 200
	second := func(i int) []byte { return []byte(fmt.Sprintf("second-%06d", i)) }
	third := func(i int) []byte { return []byte(fmt.Sprintf("third-%06d", i)) }
	deleted := func(i int) bool { return i%3 == 0 }
	var errs []error
	note := func(err error) {
		if err != nil {
			errs = append(errs, err)
		}
	}
	env.Spawn(func(p *sim.Proc) {
		cl := c.NewClient(p)
		for i := 0; i < n; i++ {
			note(cl.Put(key(i), val(i)))
		}
		c.Kill(1)
		for i := 0; i < n; i += 2 {
			note(cl.Put(key(i), second(i)))
		}
		c.Rebalance() // node 1 loses part of the keyspace while down
		for i := 1; i < n; i += 2 {
			note(cl.Put(key(i), second(i)))
		}
		c.Restart(1)
		c.Kill(1)
		for i := 0; i < n; i++ {
			if deleted(i) {
				note(cl.Delete(key(i)))
			} else {
				note(cl.Put(key(i), third(i)))
			}
		}
		c.Restart(1)
	})
	env.Run(0)
	env.Stop()

	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	if q, r := c.CatchUpsQueued(), c.CatchUpsReplayed(); q == 0 || r != q {
		t.Fatalf("catch-ups queued %d, replayed %d: want every queued one replayed", q, r)
	}
	assertOwnedOnly(t, c)
	rt := c.routing.Load()
	for i := 0; i < n; i++ {
		for _, id := range rt.owners[rt.partitionOf(key(i))] {
			env, _ := c.nodes[id].getRaw(key(i))
			v, ok := live(env)
			switch {
			case deleted(i) && ok:
				t.Fatalf("node %d resurrected deleted key %d as %q", id, i, v)
			case !deleted(i) && (!ok || !bytes.Equal(v, third(i))):
				t.Fatalf("node %d holds %q (present=%v) for key %d, want %q", id, v, ok, i, third(i))
			}
		}
	}
	if err := c.AuditConvergence(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicasConvergeUnderRacingWrites is the acceptance gate for the
// versioned store: N clients race unordered Put/Delete on shared keys
// while the cluster repeatedly rebalances in small chunks, and at the
// end every replica of every key must hold the identical versioned
// value. The unversioned store diverged here trivially — two clients'
// per-replica write orders could interleave oppositely (last writer
// wins per replica, no cross-replica order), and the ROADMAP documented
// the flip-flopping reads as a known anomaly. Run under -race.
func TestReplicasConvergeUnderRacingWrites(t *testing.T) {
	c := New(Config{Nodes: 6, ReplicationFactor: 3, Seed: 31, MoveChunkKeys: 8}, nil)
	const (
		writers = 8
		keys    = 40
		ops     = 400
	)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := c.NewClient(nil)
			for i := 0; i < ops; i++ {
				k := key(i % keys)
				switch (g + i) % 4 {
				case 0:
					cl.Delete(k)
				default:
					cl.Put(k, []byte(fmt.Sprintf("w%02d-%05d", g, i)))
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 6; i++ {
			c.Rebalance()
		}
	}()
	wg.Wait()
	<-done
	c.Rebalance() // settle the final layout with no writers racing it

	if err := c.AuditConvergence(); err != nil {
		t.Fatal(err)
	}
	// Tombstone GC must not disturb convergence: sweep everything (the
	// cluster is quiesced) and re-audit.
	if swept := c.GCTombstones(); swept == 0 {
		t.Fatal("racing deletes left no tombstones to GC — the sweep path was not exercised")
	}
	if err := c.AuditConvergence(); err != nil {
		t.Fatalf("post-GC: %v", err)
	}
}

// TestScanParallelImmediateMode: in immediate mode the scatter path
// visits every partition of the range with the speculative per-partition
// limit, one after the other; results must match the sequential walk
// exactly and the operations must be accounted.
func TestScanParallelImmediateMode(t *testing.T) {
	c, cl := newImmediate(5, 2)
	for i := 0; i < 500; i++ {
		cl.Put(key(i), val(i))
	}
	c.Rebalance()
	if parts := len(c.Splits()) + 1; parts < 3 {
		t.Fatalf("rebalance produced only %d partitions", parts)
	}
	reqs := []RangeRequest{
		{Start: key(0), End: key(500)},
		{Start: key(123), End: key(456), Limit: 50},
		{Start: key(123), End: key(456), Limit: 50, Reverse: true},
		{Start: nil, End: nil, Limit: 33},
		{Start: key(77), End: key(78), Limit: 5},
		{Start: nil, End: nil, Reverse: true, Limit: 499},
	}
	par := c.NewClient(nil)
	seq := c.NewClient(nil)
	for i, req := range reqs {
		before := par.Ops()
		got := scatter(par, req)
		opsUsed := par.Ops() - before
		want := scan(seq, req)
		if len(got) != len(want) {
			t.Fatalf("req %d: scatter %d kvs, sequential %d", i, len(got), len(want))
		}
		for j := range want {
			if !bytes.Equal(got[j].Key, want[j].Key) || !bytes.Equal(got[j].Value, want[j].Value) {
				t.Fatalf("req %d: kv %d differs: %q vs %q", i, j, got[j].Key, want[j].Key)
			}
		}
		if opsUsed <= 0 {
			t.Fatalf("req %d: scatter accounted %d ops", i, opsUsed)
		}
	}
}

// TestScanParallelImmediateConcurrentClients: the scatter path under
// -race, many clients at once.
func TestScanParallelImmediateConcurrentClients(t *testing.T) {
	c, loader := newImmediate(6, 2)
	for i := 0; i < 600; i++ {
		loader.Put(key(i), val(i))
	}
	c.Rebalance()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := c.NewClient(nil)
			for i := 0; i < 50; i++ {
				kvs := scatter(cl, RangeRequest{Start: key(g * 10), End: key(g*10 + 300), Limit: 40})
				if len(kvs) != 40 {
					panic(fmt.Sprintf("client %d: got %d kvs, want 40", g, len(kvs)))
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTombstoneGCBounded: a node that accumulates tombstones past the
// sweep threshold collects the expired ones inline, without any
// explicit GC call, on the cluster's clock: here virtual time, which a
// process advances past the grace period before tripping the threshold
// once more. (The first crossing, at virtual time zero, finds nothing
// old enough to collect.)
func TestTombstoneGCBounded(t *testing.T) {
	env := sim.NewEnv()
	c := New(Config{Nodes: 1, ReplicationFactor: 1, Seed: 3}, env)
	loader := c.NewClient(nil)
	n := tombstoneSweepThreshold + 1
	for i := 0; i < n; i++ {
		loader.Put(key(i), val(i))
		loader.Delete(key(i))
	}
	tombs := func() int {
		c.nodes[0].mu.Lock()
		defer c.nodes[0].mu.Unlock()
		return c.nodes[0].tombs
	}
	if got := tombs(); got != n {
		t.Fatalf("%d tombstones before the grace period, want all %d", got, n)
	}
	env.Spawn(func(p *sim.Proc) {
		p.Sleep(tombstoneGCAge + time.Millisecond)
		cl := c.NewClient(p)
		cl.Put(key(n), val(n))
		cl.Delete(key(n))
	})
	env.Run(0)
	env.Stop()
	if got := tombs(); got != 1 {
		t.Fatalf("%d tombstones after the sweep, want 1: only the last delete is younger than the grace period", got)
	}
	if live := c.TotalItems(); live != 0 {
		t.Fatalf("store reports %d live items after deleting everything", live)
	}
}
