package kvstore

import (
	"bytes"
	"math"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"piql/internal/sim"
)

// The read path's random source is a value inside the Client, so no
// child costs a generator: these pin the allocation counts the bounded
// read path was profiled down to.

// TestImmediateRequestSetsBuildNoClosure: an immediate-mode request set
// pays its visits on the caller itself, so it builds no closure,
// sequential or under ReadOpts.Parallel. A Gets spanning several nodes
// into a buffer that already has room (the executor's, after its first
// run) allocates nothing, and neither does a Count across a split.
func TestImmediateRequestSetsBuildNoClosure(t *testing.T) {
	c, cl := newImmediate(4, 2)
	loadAndSplit(c, 400)
	keys := [][]byte{key(3), key(150), key(290), key(3), key(399)}
	start, end := key(0), key(400)
	for _, o := range []ReadOpts{{}, {Parallel: true}} {
		gets := RequestSet{Kind: Gets, Keys: keys}
		before := cl.Ops()
		if err := cl.Issue(&gets, o); err != nil {
			t.Fatal(err)
		}
		nodes := cl.Ops() - before
		if nodes < 2 {
			t.Fatalf("the batch visited %d node(s): it must span several", nodes)
		}
		// 1, its result, until the result went into the caller's buffer.
		if n := testing.AllocsPerRun(100, func() { gets.Values = gets.Values[:0]; cl.Issue(&gets, o) }); n != 0 {
			t.Errorf("Gets %+v over %d nodes into a warm buffer: %v allocs, want 0", o, nodes, n)
		}
		rt := c.routing.Load()
		if lo, hi := rt.rangeParts(start, end); lo == hi {
			t.Fatal("the count range lies in one partition: it must cross a split")
		}
		count := RequestSet{Kind: Count, Range: RangeRequest{Start: start, End: end}}
		if n := testing.AllocsPerRun(100, func() { cl.Issue(&count, o) }); n != 0 {
			t.Errorf("Count %+v across a split: %v allocs, want 0", o, n)
		}
	}
}

// TestSimulatedPerKeyRangesAllocs pins what a simulated PerKeyRanges set
// read under Parallel (a sorted join's, under the Parallel strategy)
// allocates: its visits, across all its ranges, are paid by one settle,
// which forks them through the branch runner (2: the child slab and the
// Fork closure), and each visit draws its service time once (1 each:
// volatility seeds a math/rand generator). Each range lies inside one
// partition, so it costs one visit, and a set of one range is paid on the
// client itself and forks nothing. The items go into the set's warm
// buffers. Not under the race detector, whose instrumentation allocates
// on its own account.
func TestSimulatedPerKeyRangesAllocs(t *testing.T) {
	if info, _ := debug.ReadBuildInfo(); info != nil && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("allocation counts differ under -race")
	}
	for _, tc := range []struct{ ranges, want int }{{1, 1}, {2, 4}, {10, 12}} {
		env := sim.NewEnv()
		c := New(Config{Nodes: 4, ReplicationFactor: 2, Seed: 42}, env)
		loadAndSplit(c, 400)
		ranges := make([]RangeRequest, tc.ranges)
		for i := range ranges {
			ranges[i] = RangeRequest{Start: key(i * 37), End: key(i*37 + 3), Limit: 3}
		}
		set := RequestSet{Kind: PerKeyRanges, Ranges: ranges}
		read := func(cl *Client) {
			set.Items, set.PerRange = set.Items[:0], set.PerRange[:0]
			if err := cl.Issue(&set, ReadOpts{Parallel: true}); err != nil {
				t.Error(err)
			}
		}
		var perCall float64
		env.Spawn(func(p *sim.Proc) {
			cl := c.NewClient(p)
			read(cl)
			perCall = testing.AllocsPerRun(100, func() { read(cl) })
		})
		env.Run(0)
		env.Stop()
		if len(set.PerRange) != tc.ranges {
			t.Fatalf("%d ranges: read %d", tc.ranges, len(set.PerRange))
		}
		for i, items := range set.PerRange {
			if len(items) != 3 || !bytes.Equal(items[0].Key, key(i*37)) {
				t.Fatalf("%d ranges: range %d read %d items, want 3 from %q", tc.ranges, i, len(items), key(i*37))
			}
		}
		if perCall != float64(tc.want) {
			t.Errorf("simulated PerKeyRanges set of %d ranges: %v allocs, pinned at %d", tc.ranges, perCall, tc.want)
		}
	}
}

// traceEvent is one operation of a simulated client: the virtual time
// it ended at and, for a Put, the version the store holds for its key.
type traceEvent struct {
	at  time.Duration
	ver Version
}

// simTrace runs a fixed mix of reads and writes from several simulated
// clients and returns each client's operations in order.
func simTrace(seed int64) [][]traceEvent {
	env := sim.NewEnv()
	c := New(Config{Nodes: 5, ReplicationFactor: 2, Seed: seed}, env)
	loadAndSplit(c, 400)
	traces := make([][]traceEvent, 8)
	for w := range traces {
		env.Spawn(func(p *sim.Proc) {
			cl := c.NewClient(p)
			for i := 0; i < 40; i++ {
				k := (w*53 + i*17) % 400
				var ver Version
				switch i % 4 {
				case 0:
					get(cl, key(k))
				case 1:
					batch(cl, [][]byte{key(k), key((k + 131) % 400), key((k + 262) % 400)})
				case 2:
					scatter(cl, RangeRequest{Start: key(k), End: key(k + 120), Limit: 100})
				default:
					cl.Put(key(k), val(i))
					ver = storedVersion(c, key(k))
				}
				traces[w] = append(traces[w], traceEvent{p.Now(), ver})
			}
		})
	}
	env.Run(0)
	env.Stop()
	return traces
}

// storedVersion returns the newest version any node holds for k, read
// without a visit.
func storedVersion(c *Cluster, k []byte) Version {
	var newest Version
	for _, nd := range c.nodes {
		if env, ok := nd.getRaw(k); ok && envVersion(env).After(newest) {
			newest = envVersion(env)
		}
	}
	return newest
}

// TestSimulatedRunsRepeatFromOneSeed: a simulated run is a function of
// its seed — the same operation end times and the same stored write
// versions, which the HLC draws from virtual time.
func TestSimulatedRunsRepeatFromOneSeed(t *testing.T) {
	a, b := simTrace(7), simTrace(7)
	for w := range a {
		if !slices.Equal(a[w], b[w]) {
			t.Fatalf("client %d: two runs from one seed diverge:\n%v\n%v", w, a[w], b[w])
		}
	}
	if other := simTrace(8); slices.Equal(a[0], other[0]) {
		t.Fatal("a different seed produced the same trace: the seed is not reaching the generators")
	}
}

func TestPickReplicaUniformAndRTTMedian(t *testing.T) {
	const draws = 100_000
	c, cl := newImmediate(5, 3)
	rt := c.beginOp()
	defer c.endOp(rt)
	counts := make(map[int]int)
	for i := 0; i < draws; i++ {
		counts[cl.pickReplica(rt, 0)]++
	}
	owners := rt.owners[0]
	if len(counts) != len(owners) {
		t.Fatalf("picked %d distinct replicas of %d owners", len(counts), len(owners))
	}
	want := float64(draws) / float64(len(owners))
	for id, n := range counts {
		if math.Abs(float64(n)-want) > 0.02*want {
			t.Errorf("replica %d picked %d times, want %.0f within 2%%", id, n, want)
		}
	}

	rtts := make([]time.Duration, draws)
	for i := range rtts {
		rtts[i] = sampleRTT(&cl.rng)
	}
	slices.Sort(rtts)
	median := float64(rtts[draws/2])
	if math.Abs(median-float64(rttMedian)) > 0.02*float64(rttMedian) {
		t.Errorf("sampled RTT median %v, want %v within 2%%", time.Duration(median), rttMedian)
	}
}

// TestVolatilityGolden pins the "cloud weather" itself: the paper-figure
// experiments were calibrated on these multipliers, so the generator
// behind volatility must never change with the one behind the clients.
func TestVolatilityGolden(t *testing.T) {
	for _, g := range volatilityGolden {
		got := volatility(g.seed, g.node, time.Duration(g.interval)*volatilityInterval)
		if got != g.want {
			t.Errorf("volatility(seed %d, node %d, interval %d) = %v, want %v", g.seed, g.node, g.interval, got, g.want)
		}
	}
}

var volatilityGolden = []struct {
	seed     int64
	node     int
	interval int64
	want     float64
}{
	{20110829, 0, 0, math.Float64frombits(0x3fefcc5d573c41be)}, // 0.9936968520942668
	{20110829, 3, 0, math.Float64frombits(0x3fef283fd977b127)}, // 0.9736632583058381
	{20110829, 9, 1, math.Float64frombits(0x3fef327a96d84f22)}, // 0.9749119707289291
	{1, 0, 0, math.Float64frombits(0x3fef45c76c947e79)},        // 0.9772679444030948
	{1, 0, 17, math.Float64frombits(0x3feec3ee0a2b6ef7)},       // 0.9614172171236238
	{1, 0, 20, math.Float64frombits(0x4001c676cbfe4110)},       // 2.2219062745063027: a noisy-neighbour interval
	{42, 7, 123, math.Float64frombits(0x3fec1d2ab1797d2a)},     // 0.8785603967952842
}
