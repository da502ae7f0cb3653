package kvstore

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"piql/internal/sim"
)

// loadAndSplit fills a cluster through an immediate-mode client (free
// even on simulated clusters) and rebalances so the data spans all
// partitions.
func loadAndSplit(c *Cluster, n int) {
	loader := c.NewClient(nil)
	for i := 0; i < n; i++ {
		loader.Put(key(i), val(i))
	}
	c.Rebalance()
}

// TestScanParallelMatchesSequential: scatter-gather must return
// exactly what the sequential partition walk returns, forward and
// reverse, bounded and unbounded, across partition boundaries.
func TestScanParallelMatchesSequential(t *testing.T) {
	env := sim.NewEnv()
	c := New(Config{Nodes: 5, ReplicationFactor: 2, Seed: 11}, env)
	loadAndSplit(c, 500)

	reqs := []RangeRequest{
		{Start: key(0), End: key(500)},
		{Start: key(0), End: key(500), Limit: 7},
		{Start: key(123), End: key(456), Limit: 50},
		{Start: key(123), End: key(456), Limit: 50, Reverse: true},
		{Start: nil, End: nil, Limit: 33},
		{Start: key(490), End: key(10)}, // empty range
		{Start: key(77), End: key(78), Limit: 5},
		{Start: nil, End: nil, Reverse: true, Limit: 499},
	}
	var got [][]KV
	env.Spawn(func(p *sim.Proc) {
		cl := c.NewClient(p)
		for _, req := range reqs {
			got = append(got, scatter(cl, req))
		}
	})
	env.Run(0)
	env.Stop()

	seq := c.NewClient(nil)
	for i, req := range reqs {
		want := scan(seq, req)
		if len(got[i]) != len(want) {
			t.Fatalf("req %d: scatter returned %d kvs, sequential %d", i, len(got[i]), len(want))
		}
		for j := range want {
			if !bytes.Equal(got[i][j].Key, want[j].Key) || !bytes.Equal(got[i][j].Value, want[j].Value) {
				t.Fatalf("req %d: kv %d differs: %q vs %q", i, j, got[i][j].Key, want[j].Key)
			}
		}
	}
}

// TestScanParallelConcurrency: a request set of P independent requests
// must cost P storage operations but roughly ONE round trip of virtual
// time under Parallel — its visits are paid concurrently, so elapsed
// time is the max of them, not the sum (the sequential read pays the
// sum). Two sets of 8 requests: a bounded range spanning all 8
// partitions, and a PerKeyRanges set of 8 ranges, one inside each
// partition, whose visits across all its ranges are paid together.
func TestScanParallelConcurrency(t *testing.T) {
	env := sim.NewEnv()
	c := New(Config{Nodes: 8, ReplicationFactor: 1, Seed: 3}, env)
	loadAndSplit(c, 800)
	splits := c.Splits()
	if parts := len(splits) + 1; parts != 8 {
		t.Fatalf("expected 8 partitions after rebalance, got %d", parts)
	}
	// The full range intersects all 8 partitions; Limit exceeds the total
	// so the sequential walk cannot early-stop — both variants visit all 8.
	full := RangeRequest{Start: key(0), End: key(800), Limit: 1000}
	bounds := append(append([][]byte{key(0)}, splits...), key(800))
	perPart := make([]RangeRequest, len(splits)+1)
	for i := range perPart {
		perPart[i] = RangeRequest{Start: bounds[i], End: bounds[i+1], Limit: 1000}
	}
	for _, set := range []RequestSet{{Kind: Range, Range: full}, {Kind: PerKeyRanges, Ranges: perPart}} {
		var seqT, parT time.Duration
		var seqOps, parOps int64
		env.Spawn(func(p *sim.Proc) {
			cl := c.NewClient(p)
			t0 := p.Now()
			issue(cl, set, ReadOpts{})
			seqT, seqOps = p.Now()-t0, cl.ResetOps()
			t0 = p.Now()
			issue(cl, set, ReadOpts{Parallel: true})
			parT, parOps = p.Now()-t0, cl.ResetOps()
		})
		env.Run(0)

		if seqOps != 8 || parOps != 8 {
			t.Fatalf("%s ops: sequential %d, parallel %d, want 8 each", kindNames[set.Kind], seqOps, parOps)
		}
		// 8 sequential round trips vs the max of 8 concurrent ones: the
		// parallel read must be far faster, not marginally (conservative
		// 2x to stay robust against latency-sampling noise; the typical
		// ratio is ~6-8x).
		if parT*2 >= seqT {
			t.Fatalf("%s under Parallel %v not ~concurrent vs sequential %v", kindNames[set.Kind], parT, seqT)
		}
	}
	env.Stop()
}

// TestCountParallel: the partition counts are gathered concurrently
// in simulated mode, with the same total as the immediate-mode count.
func TestCountParallel(t *testing.T) {
	env := sim.NewEnv()
	c := New(Config{Nodes: 6, ReplicationFactor: 2, Seed: 9}, env)
	loadAndSplit(c, 600)

	wantTotal := count(c.NewClient(nil), key(100), key(500))
	if wantTotal != 400 {
		t.Fatalf("immediate Count = %d, want 400", wantTotal)
	}

	var gotTotal int
	var ops int64
	env.Spawn(func(p *sim.Proc) {
		cl := c.NewClient(p)
		gotTotal = count(cl, key(100), key(500))
		ops = cl.Ops()
	})
	env.Run(0)
	env.Stop()

	if gotTotal != wantTotal {
		t.Fatalf("simulated Count = %d, want %d", gotTotal, wantTotal)
	}
	parts := int64(len(c.Splits()) + 1)
	if ops < 2 || ops > parts {
		t.Fatalf("Count ops = %d, want in [2, %d]", ops, parts)
	}
}

// TestReadBatchDeduplicates: repeated keys are fetched once and fanned
// out to every requesting position, in both batched modes.
func TestReadBatchDeduplicates(t *testing.T) {
	c, cl := newImmediate(4, 2)
	for i := 0; i < 20; i++ {
		cl.Put(key(i), val(i))
	}
	keys := [][]byte{key(3), key(7), key(3), key(3), key(19), key(7), key(3)}
	for _, mode := range []string{"parallel Gets", "sequential Gets"} {
		var out [][]byte
		if mode == "parallel Gets" {
			out = batch(cl, keys)
		} else {
			out = batchSeq(cl, keys)
		}
		if len(out) != len(keys) {
			t.Fatalf("%s returned %d values for %d keys", mode, len(out), len(keys))
		}
		for i, k := range keys {
			var want []byte
			switch string(k) {
			case string(key(3)):
				want = val(3)
			case string(key(7)):
				want = val(7)
			case string(key(19)):
				want = val(19)
			}
			if !bytes.Equal(out[i], want) {
				t.Fatalf("%s: position %d = %q, want %q", mode, i, out[i], want)
			}
		}
	}
	_ = c
}

// TestReadBatchDedupSavesWork: on a single node, a batch of N copies of
// one key visits the node with ONE item, observable through simulated
// service time — a batch of duplicates must not cost more than the
// same batch deduplicated by hand.
func TestReadBatchDedupSavesWork(t *testing.T) {
	env := sim.NewEnv()
	c := New(Config{Nodes: 1, ReplicationFactor: 1, Seed: 21}, env)
	loader := c.NewClient(nil)
	loader.Put(key(1), bytes.Repeat([]byte("x"), 4096))
	loader.Put(key(2), bytes.Repeat([]byte("y"), 4096))

	dup := make([][]byte, 64)
	for i := range dup {
		dup[i] = key(1 + i%2)
	}
	var ops int64
	var out [][]byte
	env.Spawn(func(p *sim.Proc) {
		cl := c.NewClient(p)
		out = batch(cl, dup)
		ops = cl.Ops()
	})
	env.Run(0)
	env.Stop()
	if ops != 1 {
		t.Fatalf("single-node Gets ops = %d, want 1", ops)
	}
	for i := range dup {
		if len(out[i]) != 4096 {
			t.Fatalf("position %d: got %d bytes, want 4096", i, len(out[i]))
		}
	}
}

// TestReadBatchMissingAndEmpty covers the dedup path's edge cases: keys
// that do not exist stay nil at every position, and empty/single-key
// batches use their fast paths.
func TestReadBatchMissingAndEmpty(t *testing.T) {
	_, cl := newImmediate(3, 1)
	cl.Put(key(5), val(5))
	if out := batch(cl, nil); len(out) != 0 {
		t.Fatalf("empty batch returned %d values", len(out))
	}
	out := batch(cl, [][]byte{key(5)})
	if !bytes.Equal(out[0], val(5)) {
		t.Fatalf("single-key fast path = %q", out[0])
	}
	out = batch(cl, [][]byte{key(9), key(5), key(9)})
	if out[0] != nil || out[2] != nil || !bytes.Equal(out[1], val(5)) {
		t.Fatalf("missing-key batch = %q %q %q", out[0], out[1], out[2])
	}
}

// TestScatterConcurrentClients drives many goroutines (one client each,
// immediate mode) through the range, count, and multi-get paths at once
// — the -race gate for the shared cluster structures behind the new
// scatter/dedup code.
func TestScatterConcurrentClients(t *testing.T) {
	c, loader := newImmediate(6, 2)
	for i := 0; i < 300; i++ {
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
				lo := (g*37 + i*13) % 250
				kvs := scatter(cl, RangeRequest{Start: key(lo), End: key(lo + 40), Limit: 10})
				if len(kvs) != 10 {
					t.Errorf("goroutine %d: got %d kvs, want 10", g, len(kvs))
					return
				}
				if n := count(cl, key(lo), key(lo+40)); n != 40 {
					t.Errorf("goroutine %d: count = %d, want 40", g, n)
					return
				}
				keys := [][]byte{key(lo), key(lo + 1), key(lo), key(lo + 2)}
				out := batch(cl, keys)
				for j, k := range keys {
					if out[j] == nil {
						t.Errorf("goroutine %d: key %q missing", g, k)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkIssue is the read layer's cost: one Issue under Parallel of
// each kind of request set a plan reads, into warm buffers, on an
// immediate client and on a simulated one, where the time includes the
// scheduler's hand-offs to the branches that pay the visits. The Gets
// spans several nodes, the Range straddles a split, and the
// PerKeyRanges set is 10 ranges of 3 items, each inside one partition.
func BenchmarkIssue(b *testing.B) {
	ranges := make([]RangeRequest, 10)
	for i := range ranges {
		ranges[i] = RangeRequest{Start: key(i * 37), End: key(i*37 + 3), Limit: 3}
	}
	for _, set := range []RequestSet{
		{Kind: Gets, Keys: [][]byte{key(3), key(150), key(290), key(3), key(399)}},
		{Kind: Range, Range: RangeRequest{Start: key(90), End: key(110), Limit: 10}},
		{Kind: PerKeyRanges, Ranges: ranges},
	} {
		for _, mode := range []string{"immediate", "simulated"} {
			b.Run(kindNames[set.Kind]+"/"+mode, func(b *testing.B) {
				var env *sim.Env
				if mode == "simulated" {
					env = sim.NewEnv()
				}
				c := New(Config{Nodes: 4, ReplicationFactor: 2, Seed: 42}, env)
				loadAndSplit(c, 400)
				read := func(cl *Client) {
					set.Values, set.Items, set.PerRange = set.Values[:0], set.Items[:0], set.PerRange[:0]
					if err := cl.Issue(&set, ReadOpts{Parallel: true}); err != nil {
						b.Fatal(err)
					}
				}
				body := func(p *sim.Proc) {
					cl := c.NewClient(p)
					read(cl)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						read(cl)
					}
				}
				if env == nil {
					body(nil)
					return
				}
				env.Spawn(body)
				env.Run(0)
				env.Stop()
			})
		}
	}
}
