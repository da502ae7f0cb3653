package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"piql/internal/codec"
	"piql/internal/value"
)

// TestRebalanceUnderTraffic is the online-rebalance proof: writer
// goroutines put/overwrite/delete/test-and-set their own disjoint key
// sets — each checking read-your-writes after every operation — while
// the main goroutine runs rebalances back to back. Run under -race.
// Zero failed reads, zero lost keys, zero resurrected deletes.
func TestRebalanceUnderTraffic(t *testing.T) {
	c := New(Config{Nodes: 8, ReplicationFactor: 2, Seed: 99}, nil)
	loader := c.NewClient(nil)
	for i := 0; i < 2000; i++ {
		loader.Put(key(i), val(i))
	}
	c.Rebalance() // initial spread, same as the harness

	const writers = 8
	var stop, totalOps atomic.Int64
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := c.NewClient(nil)
			rnd := rand.New(rand.NewSource(int64(g) * 7919))
			model := make(map[string][]byte) // this goroutine's expected state
			fail := func(format string, args ...any) {
				select {
				case errs <- fmt.Errorf("writer %d: "+format, append([]any{g}, args...)...):
				default:
				}
			}
			mykey := func(i int) []byte { return []byte(fmt.Sprintf("w%02d-key-%05d", g, i)) }
			for i := 0; stop.Load() == 0; i++ {
				totalOps.Add(1)
				k := mykey(rnd.Intn(200))
				switch rnd.Intn(4) {
				case 0, 1: // put (fresh or overwrite)
					v := []byte(fmt.Sprintf("w%02d-val-%06d", g, i))
					cl.Put(k, v)
					model[string(k)] = v
				case 2: // delete
					cl.Delete(k)
					delete(model, string(k))
				case 3: // insert-if-absent
					v := []byte(fmt.Sprintf("w%02d-tas-%06d", g, i))
					_, exists := model[string(k)]
					ok, err := cl.TestAndSet(k, nil, v)
					if err != nil {
						fail("TestAndSet(%q): %v", k, err)
						return
					}
					if ok != !exists {
						fail("TestAndSet(%q) = %v, model says exists=%v", k, ok, exists)
						return
					}
					if !exists {
						model[string(k)] = v
					}
				}
				// Read-your-writes after every op: the routing table may be
				// mid-move or freshly flipped, but reads must never fail.
				chk := mykey(rnd.Intn(200))
				got, ok := get(cl, chk)
				want, exists := model[string(chk)]
				if ok != exists {
					fail("Get(%q) present=%v, model says %v (op %d)", chk, ok, exists, i)
					return
				}
				if exists && !bytes.Equal(got, want) {
					fail("Get(%q) = %q, want %q (op %d)", chk, got, want, i)
					return
				}
			}
			// Final per-writer audit through a fresh client: every model key
			// readable with the right value, every deleted key still gone,
			// and a range scan over the writer's prefix sees exactly the
			// model (no lost keys, no resurrections).
			audit := c.NewClient(nil)
			for i := 0; i < 200; i++ {
				k := mykey(i)
				got, ok := get(audit, k)
				want, exists := model[string(k)]
				if ok != exists {
					fail("audit Get(%q) present=%v, model says %v", k, ok, exists)
					return
				}
				if exists && !bytes.Equal(got, want) {
					fail("audit Get(%q) = %q, want %q", k, got, want)
					return
				}
			}
		}(g)
	}

	// Pace a fixed number of rebalances against observed write progress,
	// so every rebalance genuinely overlaps traffic.
	const rebalances = 6
	waitOps := func(target int64) {
		for totalOps.Load() < target {
			time.Sleep(100 * time.Microsecond)
		}
	}
	waitOps(500)
	for i := 0; i < rebalances; i++ {
		c.Rebalance()
		waitOps(totalOps.Load() + 300)
	}
	stop.Store(1)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Post-drain the store is clean: replicas hold only owned ranges, so
	// a final rebalance is a no-op for item counts.
	items := c.TotalItems()
	c.Rebalance()
	if got := c.TotalItems(); got != items {
		t.Fatalf("item count changed across quiescent rebalance: %d -> %d", items, got)
	}
}

// TestRebalanceRangeReadsUnderTraffic runs bounded range scans over a
// writer's private prefix while rebalances run: the scan must always
// return exactly the writer's current rows, in order — partitions being
// mid-move must never hide or duplicate items.
func TestRebalanceRangeReadsUnderTraffic(t *testing.T) {
	c := New(Config{Nodes: 6, ReplicationFactor: 2, Seed: 4}, nil)
	cl := c.NewClient(nil)
	for i := 0; i < 1200; i++ {
		cl.Put(key(i), val(i))
	}
	c.Rebalance()

	stop := make(chan struct{})
	var scanErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		scanner := c.NewClient(nil)
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			start, end := 100+(n%900), 100+(n%900)+100
			kvs := scan(scanner, RangeRequest{Start: key(start), End: key(end)})
			if len(kvs) != 100 {
				scanErr = fmt.Errorf("scan [%d,%d) returned %d items, want 100", start, end, len(kvs))
				return
			}
			for i, kv := range kvs {
				if !bytes.Equal(kv.Key, key(start+i)) {
					scanErr = fmt.Errorf("scan item %d = %q, want %q", i, kv.Key, key(start+i))
					return
				}
			}
			if got := count(scanner, key(start), key(end)); got != 100 {
				scanErr = fmt.Errorf("count [%d,%d) = %d, want 100", start, end, got)
				return
			}
		}
	}()
	for i := 0; i < 10; i++ {
		c.Rebalance()
	}
	close(stop)
	wg.Wait()
	if scanErr != nil {
		t.Fatal(scanErr)
	}
}

// groupKey is the i-th key of a group: namespace ns, the leading
// component lead in direction desc, then i.
func groupKey(ns string, lead value.Value, desc bool, i int) []byte {
	k := codec.EncodeKey(value.Row{value.Str(ns)}, nil)
	k = codec.AppendValue(k, lead, desc)
	return codec.AppendValue(k, value.Int(int64(i)), codec.Asc)
}

// checkGroupsWhole fails if a key routes to another partition than its
// group's start does: a split strictly inside the group.
func checkGroupsWhole(t *testing.T, c *Cluster, keys [][]byte) {
	t.Helper()
	rt := c.routing.Load()
	for _, k := range keys {
		g, ok := codec.GroupLen(k)
		if !ok {
			t.Fatalf("%x is not a codec key", k)
		}
		if p, q := rt.partitionOf(k[:g]), rt.partitionOf(k); p != q {
			t.Fatalf("splits %x cut the group %x: its start is in partition %d, %x in %d", rt.splits, k[:g], p, k, q)
		}
	}
}

// TestRebalanceSplitsOnGroupBoundaries: no split falls strictly inside a
// key group, so a range pinned to one group visits one partition, and a
// group holding most of the keys collapses the quantiles that fall in it
// into one split at its start.
func TestRebalanceSplitsOnGroupBoundaries(t *testing.T) {
	t.Run("groups stay whole", func(t *testing.T) {
		c, cl := newImmediate(4, 2)
		rng := rand.New(rand.NewSource(7))
		var keys [][]byte
		for g := 0; g < 30; g++ {
			// A table's groups ascend by owner; an index's by a DESC int.
			for i, n := 0, 1+rng.Intn(40); i < n; i++ {
				keys = append(keys,
					groupKey("t:thoughts", value.Str(fmt.Sprintf("u%03d", g)), codec.Asc, i),
					groupKey("x:newest", value.Int(int64(g)), codec.Desc, i))
			}
		}
		for i, k := range keys {
			if err := cl.Put(k, val(i)); err != nil {
				t.Fatal(err)
			}
		}
		for round := 0; round < 3; round++ {
			c.Rebalance()
			if parts := len(c.Splits()) + 1; parts != 4 {
				t.Fatalf("round %d: %d partitions, want 4", round, parts)
			}
			checkGroupsWhole(t, c, keys)
			// Drop a third of the keys so the next round samples anew.
			for i := round; i < len(keys); i += 3 {
				if err := cl.Delete(keys[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
	})

	t.Run("one hot group is one split", func(t *testing.T) {
		c, cl := newImmediate(4, 2)
		var keys [][]byte
		for i := 0; i < 10; i++ {
			keys = append(keys, groupKey("t:articles", value.Str(fmt.Sprintf("a%02d", i)), codec.Asc, 0))
		}
		for i := 0; i < 300; i++ {
			keys = append(keys, groupKey("t:thoughts", value.Str("hot"), codec.Asc, i))
		}
		for i := 0; i < 10; i++ {
			keys = append(keys, groupKey("t:users", value.Str(fmt.Sprintf("u%02d", i)), codec.Asc, 0))
		}
		for i, k := range keys {
			if err := cl.Put(k, val(i)); err != nil {
				t.Fatal(err)
			}
		}
		hot := keys[10]
		g, _ := codec.GroupLen(hot)
		for round := 0; round < 3; round++ {
			c.Rebalance()
			if splits := c.Splits(); len(splits) != 1 || !bytes.Equal(splits[0], hot[:g]) {
				t.Fatalf("round %d: splits %x, want the hot group's start %x alone", round, splits, hot[:g])
			}
		}
		for i, k := range keys {
			if v, ok := get(cl, k); !ok || !bytes.Equal(v, val(i)) {
				t.Fatalf("key %x reads back %q, %v", k, v, ok)
			}
		}
		cl.ResetOps()
		got := scatter(cl, RangeRequest{Start: hot[:g], End: codec.PrefixEnd(hot[:g]), Limit: 10, Reverse: true})
		if ops := cl.ResetOps(); len(got) != 10 || ops != 1 {
			t.Fatalf("the hot group's newest 10: %d items in %d ops, want 10 in 1", len(got), ops)
		}
		if !bytes.Equal(got[0].Key, keys[309]) {
			t.Fatalf("the hot group's newest key is %x, want %x", got[0].Key, keys[309])
		}
	})
}

// wantSplits is the split rule applied to materialized keys: every live
// key of each partition read whole from its first live owner, the n−1
// quantiles of their concatenation rounded down to their group's start,
// each split equal to the one before it dropped.
func wantSplits(c *Cluster) [][]byte {
	rt := c.routing.Load()
	var keys [][]byte
	for p := 0; p < rt.parts(); p++ {
		lo, hi := rt.bounds(p)
		if src := c.liveOwner(rt, p); src >= 0 {
			for _, kv := range c.nodes[src].scan(nil, lo, hi, 0, false) {
				keys = append(keys, kv.Key)
			}
		}
	}
	n := len(c.nodes)
	var splits [][]byte
	for i := 1; i < n && len(keys) > 0; i++ {
		split := keys[min(i*len(keys)/n, len(keys)-1)]
		if g, ok := codec.GroupLen(split); ok {
			split = split[:g]
		}
		if len(splits) == 0 || !bytes.Equal(split, splits[len(splits)-1]) {
			splits = append(splits, split)
		}
	}
	return splits
}

// TestRebalanceSplitsAreQuantilesOfLiveKeys: Rebalance counts each
// partition's live keys and then walks only as far as the quantile keys,
// and what it picks is what the split rule picks from every live key
// materialized (wantSplits): with tombstones on the nodes, byte keys
// and codec groups of uneven sizes, and one partition whose whole
// replica set is down, so its keys are not sampled. The last rounds
// sample fewer keys than there are nodes.
func TestRebalanceSplitsAreQuantilesOfLiveKeys(t *testing.T) {
	c, cl := newImmediate(5, 2)
	r := rand.New(rand.NewSource(5))
	var keys [][]byte
	for i := 0; i < 400; i++ {
		keys = append(keys, key(r.Intn(100000)))
	}
	for g := 0; g < 40; g++ {
		for i, n := 0, 1+r.Intn(12); i < n; i++ {
			keys = append(keys, groupKey("t:thoughts", value.Str(fmt.Sprintf("u%03d", g)), codec.Asc, i))
		}
	}
	for i, k := range keys {
		if err := cl.Put(k, val(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Rebalance()
	for i := 0; i < len(keys); i += 3 {
		if err := cl.Delete(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	tombs := 0
	for _, nd := range c.nodes {
		tombs += nd.tombs
	}
	if tombs == 0 {
		t.Fatal("no node holds a tombstone: the deletes exercise nothing")
	}
	check := func(round string) {
		t.Helper()
		want := wantSplits(c)
		c.Rebalance()
		if got := c.Splits(); fmt.Sprintf("%x", got) != fmt.Sprintf("%x", want) {
			t.Fatalf("%s: splits %x, want the live keys' quantiles %x", round, got, want)
		}
	}
	check("tombstones")
	// Partition 1's replica set is nodes 1 and 2.
	if owners := c.routing.Load().owners[1]; fmt.Sprint(owners) != "[1 2]" {
		t.Fatalf("partition 1 is owned by %v", owners)
	}
	c.Kill(1)
	c.Kill(2)
	check("partition 1 down")
	c.Restart(1)
	c.Restart(2)
	for i := 1; i < len(keys); i++ {
		if i%3 != 0 && i > 4 {
			if err := cl.Delete(keys[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("three live keys")
	check("three live keys, again")
}

// TestRebalanceEpochAdvances pins the epoch protocol: two publishes per
// rebalance (move table, then flip), and the quiescence requirement is
// gone — Rebalance while clients exist is just another operation.
func TestRebalanceEpochAdvances(t *testing.T) {
	c, cl := newImmediate(4, 2)
	for i := 0; i < 100; i++ {
		cl.Put(key(i), val(i))
	}
	if c.Epoch() != 0 {
		t.Fatalf("fresh cluster epoch = %d", c.Epoch())
	}
	c.Rebalance()
	if c.Epoch() != 2 {
		t.Fatalf("epoch after one rebalance = %d, want 2", c.Epoch())
	}
	c.Rebalance()
	if c.Epoch() != 4 {
		t.Fatalf("epoch after two rebalances = %d, want 4", c.Epoch())
	}
	for i := 0; i < 100; i++ {
		if v, ok := get(cl, key(i)); !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("key %d lost across rebalances", i)
		}
	}
}

// TestKillRacingRebalanceUnderTraffic is the race detector's input for
// the failure paths under real concurrency (the chaos storms run on the
// virtual clock): writer goroutines put and delete their own keys,
// reading each back, while one goroutine rebalances back to back and
// another kills a replica while a rebalance is copying and restarts it
// one full rebalance later. Every acked write must read back, every
// queued catch-up must replay, and the replicas must converge.
func TestKillRacingRebalanceUnderTraffic(t *testing.T) {
	c := New(Config{Nodes: 5, ReplicationFactor: 2, Seed: 23, MoveChunkKeys: 16}, nil)
	loader := c.NewClient(nil)
	for i := 0; i < 1000; i++ {
		loader.Put(key(i), val(i))
	}
	c.Rebalance()
	// The first copied chunk holds the rebalance until the kill lands.
	copying, killed := make(chan struct{}), make(chan struct{})
	var once sync.Once
	c.chunkHook = func(*move, []byte) {
		once.Do(func() {
			copying <- struct{}{}
			<-killed
		})
	}

	const writers, rebalances, victim = 6, 5, 2
	var stop atomic.Bool
	errs := make(chan error, writers+1)
	models := make([]map[string][]byte, writers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := c.NewClient(nil)
			model := make(map[string][]byte)
			defer func() { models[g] = model }()
			for i := 0; i < 300 || !stop.Load(); i++ {
				k := []byte(fmt.Sprintf("w%02d-%04d", g, i%97))
				var err error
				if i%3 == 2 {
					err = cl.Delete(k)
					delete(model, string(k))
				} else {
					v := []byte(fmt.Sprintf("w%02d-val-%06d", g, i))
					err = cl.Put(k, v)
					model[string(k)] = v
				}
				if err != nil {
					errs <- fmt.Errorf("writer %d: write %q: %v", g, k, err)
					return
				}
				got, _, ok, err := cl.Read(k, ReadOpts{})
				if want, live := model[string(k)]; err != nil || ok != live || !bytes.Equal(got, want) {
					errs <- fmt.Errorf("writer %d: read %q = %q (present=%v, err %v), want %q (present=%v)", g, k, got, ok, err, want, live)
					return
				}
			}
		}(g)
	}
	rebalanced := make(chan struct{})
	go func() {
		defer close(rebalanced)
		for i := 0; i < rebalances; i++ {
			c.Rebalance()
		}
	}()
	killer := make(chan struct{})
	go func() {
		defer close(killer)
		select {
		case <-copying:
		case <-rebalanced:
			errs <- fmt.Errorf("no rebalance copied a chunk: the kill had no copy to land in")
			return
		}
		c.Kill(victim)
		close(killed)
		// One full rebalance (move table, then flip) runs while the
		// victim is down; Restart then waits for the rebalancer's lock.
		for e := c.Epoch(); c.Epoch() < e+3; {
			runtime.Gosched()
		}
		c.Restart(victim)
	}()
	<-rebalanced
	<-killer
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if q, r := c.CatchUpsQueued(), c.CatchUpsReplayed(); q == 0 || r != q {
		t.Fatalf("catch-ups queued %d, replayed %d: want the outage to queue writes and every one replayed", q, r)
	}
	audit := c.NewClient(nil)
	for g, model := range models {
		for i := 0; i < 97; i++ {
			k := []byte(fmt.Sprintf("w%02d-%04d", g, i))
			got, ok := get(audit, k)
			if want, live := model[string(k)]; ok != live || !bytes.Equal(got, want) {
				t.Fatalf("acked write lost: %q reads %q (present=%v), want %q (present=%v)", k, got, ok, want, live)
			}
		}
	}
	if err := c.AuditConvergence(); err != nil {
		t.Fatal(err)
	}
}
