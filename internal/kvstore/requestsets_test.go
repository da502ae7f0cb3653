package kvstore

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"piql/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata from the current code")

// kindNames names the kinds in the golden.
var kindNames = map[RequestKind]string{Gets: "Gets", Range: "Range", PerKeyRanges: "PerKeyRanges", Count: "Count"}

// held is what a caller's buffer holds before a read appends to it.
var held = []byte("held")

// readSet issues set c through cl under o, into buffers that already
// hold one item each, and checks the read left that item where it was
// and capped every range at its length. It returns c answered, its
// buffers past the held items.
func readSet(t *testing.T, cl *Client, c RequestSet, o ReadOpts) RequestSet {
	c.Values, c.Items, c.PerRange = [][]byte{held}, []KV{{Key: held}}, [][]KV{{{Key: held}}}
	if err := cl.Issue(&c, o); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.Values[0], held) || !bytes.Equal(c.Items[0].Key, held) || !bytes.Equal(c.PerRange[0][0].Key, held) {
		t.Errorf("%s overwrote a held item: %q, %q, %q", kindNames[c.Kind], c.Values[0], c.Items[0].Key, c.PerRange[0][0].Key)
	}
	c.Values, c.Items, c.PerRange = c.Values[1:], c.Items[1:], c.PerRange[1:]
	for i, kvs := range c.PerRange {
		if cap(kvs) != len(kvs) {
			t.Errorf("range %d has cap %d past its %d items", i, cap(kvs), len(kvs))
		}
	}
	return c
}

// setRun is what one read of a request set left behind: the set
// answered, the operations it counted on its client and on the cluster,
// and the virtual time at return (zero on an immediate client) and the
// client's next draw.
type setRun struct {
	set           RequestSet
	ops, totalOps int64
	now           time.Duration
	next          uint64
}

// runSet loads and splits a fresh cluster, the same one on every call,
// and reads c through a client of its own, on a simulated process when
// simulated.
func runSet(t *testing.T, simulated bool, c RequestSet, o ReadOpts) setRun {
	var env *sim.Env
	if simulated {
		env = sim.NewEnv()
	}
	cluster := New(Config{Nodes: 5, ReplicationFactor: 2, Seed: 11}, env)
	loadAndSplit(cluster, 500)
	var r setRun
	body := func(p *sim.Proc) {
		cl := cluster.NewClient(p)
		r.set = readSet(t, cl, c, o)
		r.ops, r.now, r.next = cl.Ops(), cl.Now(), cl.rng.src.Uint64()
	}
	if env == nil {
		body(nil)
	} else {
		env.Spawn(body)
		env.Run(0)
		env.Stop()
	}
	r.totalOps = cluster.TotalOps()
	return r
}

// goldenSets is the golden's request sets over loadAndSplit's 500 keys
// on 5 nodes: every kind; ranges inside a partition and straddling a
// split, in both directions, at limits 0, 1, 3 and 50; key sets with
// repeats, misses, a single key and keys spread over several nodes; and
// counts across a split.
func goldenSets(t *testing.T) []RequestSet {
	probe := New(Config{Nodes: 5, ReplicationFactor: 2, Seed: 11}, nil)
	loadAndSplit(probe, 500)
	rt := probe.routing.Load()
	var ranges, straddling []RangeRequest
	var counts []RequestSet
	spread := [][]byte{key(0)}
	for _, split := range probe.Splits() {
		var s int
		if _, err := fmt.Sscanf(string(split), "key-%06d", &s); err != nil {
			t.Fatal(err)
		}
		spread = append(spread, key(s+1), key(s-1))
		for _, r := range [][2]int{{s - 5, s + 5}, {s + 10, s + 20}} {
			lo, hi := rt.rangeParts(key(r[0]), key(r[1]))
			counts = append(counts, RequestSet{Kind: Count, Range: RangeRequest{Start: key(r[0]), End: key(r[1])}})
			for _, reverse := range []bool{false, true} {
				for _, limit := range []int{0, 1, 3, 50} {
					req := RangeRequest{Start: key(r[0]), End: key(r[1]), Limit: limit, Reverse: reverse}
					ranges = append(ranges, req)
					if lo != hi {
						straddling = append(straddling, req)
					}
				}
			}
		}
	}
	if len(straddling) == 0 || len(straddling) == len(ranges) {
		t.Fatalf("%d of %d ranges straddle a split: want some of each", len(straddling), len(ranges))
	}

	sets := []RequestSet{
		{Kind: Gets},
		{Kind: Gets, Keys: [][]byte{key(5)}},
		{Kind: Gets, Keys: [][]byte{[]byte("missing")}},
		{Kind: Gets, Keys: [][]byte{key(3), key(7), key(3), key(3), key(19), key(7), key(3)}},
		{Kind: Gets, Keys: [][]byte{key(9), []byte("missing"), key(5), key(9), key(600)}},
		{Kind: Gets, Keys: spread},
		{Kind: Gets, Keys: append(append([][]byte{}, spread...), spread[3], key(250), spread[1])},
	}
	for _, req := range append(ranges,
		RangeRequest{Limit: 33},
		RangeRequest{Reverse: true, Limit: 40},
		RangeRequest{Start: key(490), End: key(10)},
		RangeRequest{Start: key(123), End: key(456), Limit: 50, Reverse: true},
	) {
		sets = append(sets, RequestSet{Kind: Range, Range: req})
	}
	for _, set := range [][]RangeRequest{nil, ranges[:1], straddling[:1], straddling, ranges} {
		sets = append(sets, RequestSet{Kind: PerKeyRanges, Ranges: set})
	}
	return append(sets, append(counts,
		RequestSet{Kind: Count},
		RequestSet{Kind: Count, Range: RangeRequest{Start: key(600)}},
		RequestSet{Kind: Count, Range: RangeRequest{Start: key(490), End: key(10)}},
	)...)
}

// modes are the four ways the golden reads each set.
var modes = []struct {
	name      string
	simulated bool
	o         ReadOpts
}{
	{"sequential immediate", false, ReadOpts{}},
	{"sequential simulated", true, ReadOpts{}},
	{"parallel   immediate", false, ReadOpts{Parallel: true}},
	{"parallel   simulated", true, ReadOpts{Parallel: true}},
}

// TestRequestSetsGolden pins how the store answers every kind of
// request set, sequentially and under ReadOpts.Parallel, on an immediate
// and on a simulated client: the items, the operations counted on the
// client and on the cluster, the virtual time at return and the client's
// next draw. Every mode must return the same items, which the golden
// records once per set. A change to how the store issues a set — which
// replica it draws, in what order, what it visits — is a reviewed diff
// of testdata/requestsets.golden:
//
//	go test ./internal/kvstore -run TestRequestSetsGolden -update
//
// One path reads every kind, so a PerKeyRanges set of one range reads
// exactly as the Range set with its bounds in every mode, which the test
// checks by code as well.
func TestRequestSetsGolden(t *testing.T) {
	var got bytes.Buffer
	twins := map[string][]setRun{} // each Range set's runs, by its bounds
	for _, c := range goldenSets(t) {
		writeSet(&got, c)
		var first string
		runs := make([]setRun, len(modes))
		for i, mode := range modes {
			r := runSet(t, mode.simulated, c, mode.o)
			runs[i] = r
			if a := answerText(r.set); i == 0 {
				first = a
				got.WriteString(a)
			} else if a != first {
				t.Errorf("%s %s: answer\n%s\ndiffers from the sequential immediate read's\n%s", kindNames[c.Kind], mode.name, a, first)
			}
			fmt.Fprintf(&got, "  %s: ops %d, cluster %d, at %v, next %016x\n", mode.name, r.ops, r.totalOps, r.now, r.next)
		}
		switch {
		case c.Kind == Range:
			twins[rangeText(c.Range)] = runs
		case c.Kind == PerKeyRanges && len(c.Ranges) == 1:
			name := rangeText(c.Ranges[0])
			twin := twins[name]
			if twin == nil {
				t.Fatalf("no Range set has the bounds of the one-range PerKeyRanges %s", name)
			}
			if answerText(runs[0].set) != answerText(twin[0].set) {
				t.Errorf("one-range PerKeyRanges %s reads other items than its Range twin", name)
			}
			for i, r := range runs {
				if w := twin[i]; r.ops != w.ops || r.totalOps != w.totalOps || r.now != w.now || r.next != w.next {
					t.Errorf("one-range PerKeyRanges %s %s: ops %d, cluster %d, at %v, next %016x; its Range twin ops %d, cluster %d, at %v, next %016x",
						name, modes[i].name, r.ops, r.totalOps, r.now, r.next, w.ops, w.totalOps, w.now, w.next)
				}
			}
		}
	}

	const path = "testdata/requestsets.golden"
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("request sets differ from %s (regenerate with -update and review the diff)\n--- got\n%s\n--- want\n%s", path, got.Bytes(), want)
	}
}

// writeSet writes c's kind and its keys or ranges.
func writeSet(w *bytes.Buffer, c RequestSet) {
	fmt.Fprintf(w, "%s", kindNames[c.Kind])
	ranges := c.Ranges
	switch c.Kind {
	case Gets:
		fmt.Fprintf(w, " %q\n", c.Keys)
		return
	case Range, Count:
		ranges = []RangeRequest{c.Range}
	}
	fmt.Fprintf(w, " (%d)\n", len(ranges))
	for _, r := range ranges {
		fmt.Fprintf(w, "  %s\n", rangeText(r))
	}
}

// rangeText renders a range's bounds, limit and direction.
func rangeText(r RangeRequest) string {
	return fmt.Sprintf("[%q, %q) limit %d reverse %v", r.Start, r.End, r.Limit, r.Reverse)
}

// answerText renders an answered set: a Gets' values, each range's items
// as key=value, or a Count's number.
func answerText(c RequestSet) string {
	var b bytes.Buffer
	ranges := c.PerRange
	switch c.Kind {
	case Gets:
		fmt.Fprintf(&b, "  = %q\n", c.Values)
		return b.String()
	case Count:
		fmt.Fprintf(&b, "  = %d\n", c.N)
		return b.String()
	case Range:
		ranges = [][]KV{c.Items}
	}
	for _, kvs := range ranges {
		b.WriteString("  =")
		for _, kv := range kvs {
			fmt.Fprintf(&b, " %s=%s", kv.Key, kv.Value)
		}
		b.WriteString("\n")
	}
	return b.String()
}
