package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"piql/internal/sim"
)

func key(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("val-%06d", i)) }

func newImmediate(nodes, rf int) (*Cluster, *Client) {
	c := New(Config{Nodes: nodes, ReplicationFactor: rf, Seed: 42}, nil)
	return c, c.NewClient(nil)
}

func TestGetPutDelete(t *testing.T) {
	_, cl := newImmediate(4, 2)
	if _, ok := get(cl, key(1)); ok {
		t.Fatal("Get on empty cluster")
	}
	cl.Put(key(1), val(1))
	v, ok := get(cl, key(1))
	if !ok || !bytes.Equal(v, val(1)) {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	cl.Delete(key(1))
	if _, ok := get(cl, key(1)); ok {
		t.Fatal("Get after Delete")
	}
}

func TestReplicationSurvivesAllReplicaReads(t *testing.T) {
	c, cl := newImmediate(5, 2)
	for i := 0; i < 100; i++ {
		cl.Put(key(i), val(i))
	}
	// Every read replica must return the value: try many clients (each
	// picks replicas with a different RNG stream).
	for trial := 0; trial < 20; trial++ {
		cl2 := c.NewClient(nil)
		for i := 0; i < 100; i++ {
			v, ok := get(cl2, key(i))
			if !ok || !bytes.Equal(v, val(i)) {
				t.Fatalf("trial %d: key %d missing on some replica", trial, i)
			}
		}
	}
	// With RF=2 each item is stored twice.
	if got := c.TotalItems(); got != 200 {
		t.Fatalf("TotalItems = %d, want 200", got)
	}
}

func TestRebalanceSpreadsData(t *testing.T) {
	c, cl := newImmediate(8, 1)
	const n = 4000
	for i := 0; i < n; i++ {
		cl.Put(key(i), val(i))
	}
	// Before rebalance everything is on partition 0's replicas.
	c.Rebalance()
	for i, nd := range c.nodes {
		size := nd.size()
		if size < n/8-n/16 || size > n/8+n/16 {
			t.Errorf("node %d holds %d items, want ~%d", i, size, n/8)
		}
	}
	// All data still readable after rebalance.
	for i := 0; i < n; i++ {
		if _, ok := get(cl, key(i)); !ok {
			t.Fatalf("key %d lost in rebalance", i)
		}
	}
}

func TestScanAcrossPartitions(t *testing.T) {
	c, cl := newImmediate(6, 2)
	const n = 1200
	for i := 0; i < n; i++ {
		cl.Put(key(i), val(i))
	}
	c.Rebalance()

	kvs := scan(cl, RangeRequest{Start: key(100), End: key(1100)})
	if len(kvs) != 1000 {
		t.Fatalf("range returned %d items, want 1000", len(kvs))
	}
	for i, kv := range kvs {
		if !bytes.Equal(kv.Key, key(100+i)) {
			t.Fatalf("item %d = %q, want %q", i, kv.Key, key(100+i))
		}
	}

	// Limited scan stops early.
	kvs = scan(cl, RangeRequest{Start: key(100), End: key(1100), Limit: 7})
	if len(kvs) != 7 || !bytes.Equal(kvs[6].Key, key(106)) {
		t.Fatalf("limited scan = %d items, last %q", len(kvs), kvs[len(kvs)-1].Key)
	}

	// Reverse scan returns descending order from the end.
	kvs = scan(cl, RangeRequest{Start: key(100), End: key(1100), Limit: 5, Reverse: true})
	if len(kvs) != 5 {
		t.Fatalf("reverse scan = %d items", len(kvs))
	}
	for i, kv := range kvs {
		if !bytes.Equal(kv.Key, key(1099-i)) {
			t.Fatalf("reverse item %d = %q", i, kv.Key)
		}
	}

	// Unbounded scans.
	if got := len(scan(cl, RangeRequest{})); got != n {
		t.Fatalf("full scan = %d", got)
	}
	if got := len(scan(cl, RangeRequest{Reverse: true})); got != n {
		t.Fatalf("full reverse scan = %d", got)
	}
}

func TestCount(t *testing.T) {
	c, cl := newImmediate(4, 2)
	for i := 0; i < 500; i++ {
		cl.Put(key(i), val(i))
	}
	c.Rebalance()
	if got := count(cl, key(10), key(60)); got != 50 {
		t.Fatalf("Count = %d, want 50", got)
	}
	if got := count(cl, nil, nil); got != 500 {
		t.Fatalf("Count all = %d, want 500", got)
	}
	if got := count(cl, key(600), nil); got != 0 {
		t.Fatalf("Count empty = %d, want 0", got)
	}
}

func TestReadBatch(t *testing.T) {
	c, cl := newImmediate(5, 2)
	for i := 0; i < 300; i++ {
		cl.Put(key(i), val(i))
	}
	c.Rebalance()
	keys := [][]byte{key(5), key(250), []byte("missing"), key(99)}
	got := batch(cl, keys)
	if !bytes.Equal(got[0], val(5)) || !bytes.Equal(got[1], val(250)) || got[2] != nil || !bytes.Equal(got[3], val(99)) {
		t.Fatalf("Gets = %q", got)
	}
	if out := batch(cl, nil); len(out) != 0 {
		t.Fatalf("empty Gets = %v", out)
	}
	// A Gets appends: what Values holds stays ahead of the values.
	held := []byte("held")
	set := RequestSet{Kind: Gets, Keys: keys, Values: [][]byte{held}}
	if err := cl.Issue(&set, ReadOpts{}); err != nil {
		t.Fatal(err)
	}
	if out := set.Values; len(out) != 1+len(keys) || !bytes.Equal(out[0], held) || !bytes.Equal(out[2], val(250)) || out[3] != nil {
		t.Fatalf("Gets after one held entry = %q", out)
	}
}

func TestTestAndSet(t *testing.T) {
	_, cl := newImmediate(3, 2)
	k := []byte("tas")
	tas := func(expect, update []byte) bool {
		t.Helper()
		ok, err := cl.TestAndSet(k, expect, update)
		if err != nil {
			t.Fatalf("TestAndSet(%q, %q): %v", expect, update, err)
		}
		return ok
	}
	// Insert-if-absent.
	if !tas(nil, []byte("v1")) {
		t.Fatal("insert-if-absent failed on empty key")
	}
	if tas(nil, []byte("v2")) {
		t.Fatal("insert-if-absent succeeded on existing key")
	}
	// Conditional update.
	if tas([]byte("wrong"), []byte("v2")) {
		t.Fatal("swap with wrong expectation succeeded")
	}
	if !tas([]byte("v1"), []byte("v2")) {
		t.Fatal("swap with right expectation failed")
	}
	v, _ := get(cl, k)
	if !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("value = %q", v)
	}
	// Conditional delete.
	if !tas([]byte("v2"), nil) {
		t.Fatal("conditional delete failed")
	}
	if _, ok := get(cl, k); ok {
		t.Fatal("key survived conditional delete")
	}
}

func TestOpCounting(t *testing.T) {
	_, cl := newImmediate(4, 2)
	cl.Put(key(1), val(1)) // 2 replicas = 2 ops
	if cl.Ops() != 2 {
		t.Fatalf("ops after put = %d, want 2", cl.Ops())
	}
	get(cl, key(1)) // 1 op
	if cl.Ops() != 3 {
		t.Fatalf("ops after get = %d, want 3", cl.Ops())
	}
	if prev := cl.ResetOps(); prev != 3 || cl.Ops() != 0 {
		t.Fatalf("ResetOps = %d, ops now %d", prev, cl.Ops())
	}
}

func TestRangeMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := New(Config{Nodes: 1 + r.Intn(6), ReplicationFactor: 1 + r.Intn(2), Seed: seed}, nil)
		cl := c.NewClient(nil)
		ref := map[string]string{}
		n := 50 + r.Intn(400)
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("k%04d", r.Intn(800))
			v := fmt.Sprintf("v%d", i)
			cl.Put([]byte(k), []byte(v))
			ref[k] = v
		}
		c.Rebalance()
		// A few random puts after rebalance to exercise mid-life routing.
		for i := 0; i < 20; i++ {
			k := fmt.Sprintf("k%04d", r.Intn(800))
			v := fmt.Sprintf("post%d", i)
			cl.Put([]byte(k), []byte(v))
			ref[k] = v
		}
		keys := make([]string, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Strings(keys)

		lo := []byte(fmt.Sprintf("k%04d", r.Intn(800)))
		hi := []byte(fmt.Sprintf("k%04d", r.Intn(800)))
		if bytes.Compare(lo, hi) > 0 {
			lo, hi = hi, lo
		}
		var want []string
		for _, k := range keys {
			if k >= string(lo) && k < string(hi) {
				want = append(want, k)
			}
		}
		limit := r.Intn(20)
		reverse := r.Intn(2) == 0
		got := scan(cl, RangeRequest{Start: lo, End: hi, Limit: limit, Reverse: reverse})
		expected := want
		if reverse {
			expected = make([]string, len(want))
			for i := range want {
				expected[i] = want[len(want)-1-i]
			}
		}
		if limit > 0 && len(expected) > limit {
			expected = expected[:limit]
		}
		if len(got) != len(expected) {
			return false
		}
		for i := range got {
			if string(got[i].Key) != expected[i] || string(got[i].Value) != ref[expected[i]] {
				return false
			}
		}
		return count(cl, lo, hi) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// --- simulated-mode tests ---

func TestSimulatedOpsTakeVirtualTime(t *testing.T) {
	env := sim.NewEnv()
	c := New(Config{Nodes: 4, ReplicationFactor: 2, Seed: 7}, env)
	var getLatency, putLatency time.Duration
	env.Spawn(func(p *sim.Proc) {
		cl := c.NewClient(p)
		t0 := p.Now()
		cl.Put(key(1), val(1))
		putLatency = p.Now() - t0
		t0 = p.Now()
		get(cl, key(1))
		getLatency = p.Now() - t0
	})
	env.Run(0)
	if getLatency <= 0 || putLatency <= 0 {
		t.Fatalf("latencies: get=%v put=%v", getLatency, putLatency)
	}
	if getLatency > 100*time.Millisecond {
		t.Fatalf("get latency unreasonably high: %v", getLatency)
	}
}

func TestSimulatedReadBatchParallelFasterThanSerial(t *testing.T) {
	build := func() (*Cluster, *sim.Env) {
		env := sim.NewEnv()
		c := New(Config{Nodes: 8, ReplicationFactor: 1, Seed: 11}, env)
		cl := c.NewClient(nil)
		for i := 0; i < 800; i++ {
			cl.Put(key(i), val(i))
		}
		c.Rebalance()
		return c, env
	}
	keys := make([][]byte, 40)
	for i := range keys {
		keys[i] = key(i * 20)
	}

	c1, env1 := build()
	var serial time.Duration
	env1.Spawn(func(p *sim.Proc) {
		cl := c1.NewClient(p)
		t0 := p.Now()
		for _, k := range keys {
			get(cl, k)
		}
		serial = p.Now() - t0
	})
	env1.Run(0)

	c2, env2 := build()
	var batched time.Duration
	env2.Spawn(func(p *sim.Proc) {
		cl := c2.NewClient(p)
		t0 := p.Now()
		batch(cl, keys)
		batched = p.Now() - t0
	})
	env2.Run(0)

	if batched*3 > serial {
		t.Fatalf("Gets (%v) not substantially faster than serial gets (%v)", batched, serial)
	}
}

func TestNodeSaturationInflatesLatency(t *testing.T) {
	// One node with tiny capacity: 64 clients hammering it must see far
	// higher latency than a single client.
	run := func(clients int) time.Duration {
		env := sim.NewEnv()
		c := New(Config{Nodes: 1, ReplicationFactor: 1, Seed: 9}, env)
		c.nodes[0].queue = env.NewResource(2)
		var worst time.Duration
		for i := 0; i < clients; i++ {
			env.Spawn(func(p *sim.Proc) {
				cl := c.NewClient(p)
				t0 := p.Now()
				get(cl, key(1))
				if d := p.Now() - t0; d > worst {
					worst = d
				}
			})
		}
		env.Run(0)
		return worst
	}
	solo, crowded := run(1), run(64)
	if crowded < 5*solo {
		t.Fatalf("no queueing effect: solo=%v crowded=%v", solo, crowded)
	}
}

func TestVolatilityVariesByInterval(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		v := volatility(1, 0, time.Duration(i)*volatilityInterval)
		seen[fmt.Sprintf("%.3f", v)] = true
		// Deterministic: same inputs, same multiplier.
		if v2 := volatility(1, 0, time.Duration(i)*volatilityInterval); v2 != v {
			t.Fatal("volatility not deterministic")
		}
	}
	if len(seen) < 50 {
		t.Fatalf("volatility nearly constant: %d distinct values", len(seen))
	}
}

func TestClusterString(t *testing.T) {
	c, cl := newImmediate(3, 1)
	cl.Put(key(1), val(1))
	if s := c.String(); s == "" {
		t.Fatal("empty String()")
	}
	if c.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", c.NumNodes())
	}
	if c.TotalOps() == 0 {
		t.Fatal("TotalOps not counted")
	}
}

// The tests' reads. No fault is in play unless a test injects one — and
// those tests call Read or Issue themselves to look at the error — so here an error is a bug and panics (tests read from
// goroutines and simulated processes, where t.Fatal is off limits).
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func get(cl *Client, k []byte) ([]byte, bool) {
	v, _, ok, err := cl.Read(k, ReadOpts{})
	if err != nil {
		panic(err)
	}
	return v, ok
}

// issue reads set through cl under o and returns it answered.
func issue(cl *Client, set RequestSet, o ReadOpts) RequestSet {
	if err := cl.Issue(&set, o); err != nil {
		panic(err)
	}
	return set
}

func batch(cl *Client, keys [][]byte) [][]byte {
	return issue(cl, RequestSet{Kind: Gets, Keys: keys}, ReadOpts{Parallel: true}).Values
}
func batchSeq(cl *Client, keys [][]byte) [][]byte {
	return issue(cl, RequestSet{Kind: Gets, Keys: keys}, ReadOpts{}).Values
}
func scan(cl *Client, req RangeRequest) []KV {
	return issue(cl, RequestSet{Kind: Range, Range: req}, ReadOpts{}).Items
}
func scatter(cl *Client, req RangeRequest) []KV {
	return issue(cl, RequestSet{Kind: Range, Range: req}, ReadOpts{Parallel: true}).Items
}
func count(cl *Client, start, end []byte) int {
	return issue(cl, RequestSet{Kind: Count, Range: RangeRequest{Start: start, End: end}}, ReadOpts{Parallel: true}).N
}
