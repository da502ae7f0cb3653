package kvstore

import (
	"bytes"
	"fmt"
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

// scanSetRun is what one read of a request set left behind: its items,
// the operations it counted on its client and on the cluster, and, on a
// simulated client, the virtual time at return and the client's next
// draw.
type scanSetRun struct {
	out      [][]KV
	ops      int64
	totalOps int64
	now      time.Duration
	next     uint64
}

// readScanSet loads and splits a fresh cluster — the same one on every
// call — and reads reqs with read through a client of its own, on a
// simulated process when simulated.
func readScanSet(simulated bool, reqs []RangeRequest, read func(*Client, []RangeRequest) [][]KV) scanSetRun {
	var env *sim.Env
	if simulated {
		env = sim.NewEnv()
	}
	c := New(Config{Nodes: 5, ReplicationFactor: 2, Seed: 11}, env)
	loadAndSplit(c, 500)
	var r scanSetRun
	body := func(p *sim.Proc) {
		cl := c.NewClient(p)
		r.out = read(cl, reqs)
		r.ops, r.now, r.next = cl.Ops(), cl.Now(), cl.rng.src.Uint64()
	}
	if env == nil {
		body(nil)
	} else {
		env.Spawn(body)
		env.Run(0)
		env.Stop()
	}
	r.totalOps = c.TotalOps()
	return r
}

// TestScanRangesMatchesScans: one ScanRanges reads a request set exactly
// as the executor read it with one Scan per range — issued through
// Client.Parallel under Parallel, one after another without: the same
// items, the same operations on the client and the cluster, and on a
// simulated client the same virtual time at return and the same next
// draw. The ranges lie inside one partition or straddle a split, run in
// both directions, and are limited to 0, 1, 3 and more items than they
// hold.
func TestScanRangesMatchesScans(t *testing.T) {
	probe := New(Config{Nodes: 5, ReplicationFactor: 2, Seed: 11}, nil)
	loadAndSplit(probe, 500)
	rt := probe.routing.Load()
	var reqs []RangeRequest
	var spans []int64 // partitions each range spans: what Parallel visits
	straddling, inside := 0, 0
	for _, split := range probe.Splits() {
		var s int
		if _, err := fmt.Sscanf(string(split), "key-%06d", &s); err != nil {
			t.Fatal(err)
		}
		for _, r := range [][2]int{{s - 5, s + 5}, {s + 10, s + 20}} {
			lo, hi := rt.rangeParts(key(r[0]), key(r[1]))
			if lo != hi {
				straddling++
			} else {
				inside++
			}
			for _, reverse := range []bool{false, true} {
				for _, limit := range []int{0, 1, 3, 50} {
					reqs = append(reqs, RangeRequest{Start: key(r[0]), End: key(r[1]), Limit: limit, Reverse: reverse})
					spans = append(spans, int64(hi-lo+1))
				}
			}
		}
	}
	if straddling == 0 || inside == 0 {
		t.Fatalf("%d ranges straddle a split and %d lie inside a partition: want some of each", straddling, inside)
	}

	for _, simulated := range []bool{false, true} {
		for _, o := range []ReadOpts{{}, {Parallel: true}} {
			for _, set := range [][]RangeRequest{reqs, reqs[:1], nil} {
				what := fmt.Sprintf("simulated=%v parallel=%v, %d ranges", simulated, o.Parallel, len(set))
				got := readScanSet(simulated, set, func(cl *Client, reqs []RangeRequest) [][]KV {
					return must(cl.ScanRanges(reqs, o))
				})
				want := readScanSet(simulated, set, func(cl *Client, reqs []RangeRequest) [][]KV {
					out := make([][]KV, len(reqs))
					if !o.Parallel {
						for i := range reqs {
							out[i] = must(cl.Scan(reqs[i], o))
						}
						return out
					}
					fns := make([]func(*Client), len(reqs))
					for i := range reqs {
						fns[i] = func(sub *Client) { out[i] = must(sub.Scan(reqs[i], o)) }
					}
					cl.Parallel(fns...)
					return out
				})
				if got.ops != want.ops || got.totalOps != want.totalOps || got.now != want.now || got.next != want.next {
					t.Fatalf("%s: ScanRanges left ops %d, total %d, time %v, next draw %x; the Scans %d, %d, %v, %x",
						what, got.ops, got.totalOps, got.now, got.next, want.ops, want.totalOps, want.now, want.next)
				}
				// Parallel speculates: every partition a range spans is visited,
				// however few items the limit asks for.
				var visits int64
				for _, n := range spans[:len(set)] {
					visits += n
				}
				if o.Parallel && got.ops != visits {
					t.Fatalf("%s: %d operations, want one per partition spanned, %d", what, got.ops, visits)
				}
				if len(got.out) != len(set) {
					t.Fatalf("%s: %d results", what, len(got.out))
				}
				for i, kvs := range got.out {
					if cap(kvs) != len(kvs) {
						t.Fatalf("%s: range %d has cap %d past its %d items", what, i, cap(kvs), len(kvs))
					}
					if len(kvs) != len(want.out[i]) {
						t.Fatalf("%s: range %d (%+v) has %d items, its Scan %d", what, i, set[i], len(kvs), len(want.out[i]))
					}
					for j := range kvs {
						if !bytes.Equal(kvs[j].Key, want.out[i][j].Key) || !bytes.Equal(kvs[j].Value, want.out[i][j].Value) {
							t.Fatalf("%s: range %d item %d is %q, its Scan's %q", what, i, j, kvs[j].Key, want.out[i][j].Key)
						}
					}
				}
			}
		}
	}
}

// TestScanParallelConcurrency: a bounded range spanning P partitions
// must cost P storage operations but roughly ONE round trip of virtual
// time — the per-partition scans are issued concurrently, so elapsed
// time is the max of the scans, not the sum (the sequential walk pays
// the sum).
func TestScanParallelConcurrency(t *testing.T) {
	env := sim.NewEnv()
	c := New(Config{Nodes: 8, ReplicationFactor: 1, Seed: 3}, env)
	loadAndSplit(c, 800)
	if parts := len(c.Splits()) + 1; parts != 8 {
		t.Fatalf("expected 8 partitions after rebalance, got %d", parts)
	}

	// The full range intersects all 8 partitions; Limit exceeds the total
	// so the sequential walk cannot early-stop — both variants visit all 8.
	req := RangeRequest{Start: key(0), End: key(800), Limit: 1000}
	var seqT, scatT time.Duration
	var seqOps, scatOps int64
	env.Spawn(func(p *sim.Proc) {
		cl := c.NewClient(p)
		t0 := p.Now()
		scan(cl, req)
		seqT, seqOps = p.Now()-t0, cl.ResetOps()
		t0 = p.Now()
		scatter(cl, req)
		scatT, scatOps = p.Now()-t0, cl.ResetOps()
	})
	env.Run(0)
	env.Stop()

	if seqOps != 8 || scatOps != 8 {
		t.Fatalf("ops: sequential %d, scatter %d, want 8 each", seqOps, scatOps)
	}
	// 8 sequential round trips vs the max of 8 concurrent ones: scatter
	// must be far faster, not marginally (conservative 2x to stay robust
	// against latency-sampling noise; the typical ratio is ~6-8x).
	if scatT*2 >= seqT {
		t.Fatalf("scatter %v not ~concurrent vs sequential %v", scatT, seqT)
	}
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
	for _, mode := range []string{"parallel ReadBatch", "sequential ReadBatch"} {
		var out [][]byte
		if mode == "parallel ReadBatch" {
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
		t.Fatalf("single-node ReadBatch ops = %d, want 1", ops)
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
