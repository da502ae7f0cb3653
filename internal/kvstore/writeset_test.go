package kvstore

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"piql/internal/sim"
)

// TestApplyLandsEveryKey pins the set write on a simulated cluster at
// replication factor 3: a set of puts and then a set of deletes leave
// every owner of every key holding its value or its tombstone, at one
// operation per key and replica; an empty set costs nothing; the set
// takes less virtual time than the same keys put one at a time; and a
// set written while a move copies its range lands on the move's
// destinations too.
func TestApplyLandsEveryKey(t *testing.T) {
	const nkeys, rf = 8, 3
	keys, vals := make([][]byte, nkeys), make([][]byte, nkeys)
	for i := range keys {
		keys[i], vals[i] = key(i*37), val(i)
	}
	run := func(body func(cl *Client)) (*Cluster, time.Duration) {
		env := sim.NewEnv()
		c := New(Config{Nodes: 5, ReplicationFactor: rf, Seed: 31}, env)
		var took time.Duration
		env.Spawn(func(p *sim.Proc) {
			cl := c.NewClient(p)
			t0 := p.Now()
			body(cl)
			took = p.Now() - t0
		})
		env.Run(0)
		return c, took
	}
	// held reports whether every owner of every key holds its value, or
	// its tombstone when vals is nil.
	held := func(c *Cluster, vals [][]byte) error {
		rt := c.routing.Load()
		for i, k := range keys {
			for _, id := range rt.owners[rt.partitionOf(k)] {
				env, _ := c.nodes[id].getRaw(k)
				if env == nil {
					return fmt.Errorf("node %d holds nothing under %q", id, k)
				}
				if v, ok := live(env); vals == nil && ok || vals != nil && !bytes.Equal(v, vals[i]) {
					return fmt.Errorf("node %d holds %q (live %v) under %q", id, v, ok, k)
				}
			}
		}
		return nil
	}

	var putOps, delOps, emptyOps int64
	c, setTook := run(func(cl *Client) {
		if err := cl.Apply(&WriteSet{}); err != nil {
			t.Error(err)
		}
		emptyOps = cl.ResetOps()
		if err := cl.Apply(&WriteSet{Keys: keys, Vals: vals}); err != nil {
			t.Error(err)
		}
		putOps = cl.ResetOps()
	})
	if err := held(c, vals); err != nil {
		t.Fatalf("after a set of puts: %v", err)
	}
	if emptyOps != 0 || putOps != nkeys*rf {
		t.Fatalf("an empty set cost %d ops, a set of %d puts %d; want 0 and %d", emptyOps, nkeys, putOps, nkeys*rf)
	}
	c, _ = run(func(cl *Client) {
		if err := cl.Apply(&WriteSet{Keys: keys, Vals: vals}); err != nil {
			t.Error(err)
		}
		cl.ResetOps()
		if err := cl.Apply(&WriteSet{Keys: keys, Del: true}); err != nil {
			t.Error(err)
		}
		delOps = cl.ResetOps()
	})
	if err := held(c, nil); err != nil {
		t.Fatalf("after a set of deletes: %v", err)
	}
	if delOps != nkeys*rf {
		t.Fatalf("a set of %d deletes cost %d ops, want %d", nkeys, delOps, nkeys*rf)
	}
	_, oneByOne := run(func(cl *Client) {
		for i := range keys {
			if err := cl.Put(keys[i], vals[i]); err != nil {
				t.Error(err)
			}
		}
	})
	if setTook >= oneByOne {
		t.Fatalf("a set of %d puts took %v, no less than %v for the same puts one at a time", nkeys, setTook, oneByOne)
	}

	// Mid-move: the first chunk hook writes a set over keys its move
	// covers, and every destination must hold the set's values at once.
	mc := New(Config{Nodes: 4, ReplicationFactor: 2, Seed: 9, MoveChunkKeys: 8}, nil)
	cl := mc.NewClient(nil)
	const n = 400
	for i := 0; i < n; i++ {
		cl.Put(key(i), val(i))
	}
	hooker, checked := mc.NewClient(nil), false
	mc.chunkHook = func(mv *move, next []byte) {
		if checked {
			return
		}
		checked = true
		var set WriteSet
		for i := 0; i < n && len(set.Keys) < nkeys; i += 3 {
			if k := key(i); mv.covers(k) {
				set.Keys, set.Vals = append(set.Keys, k), append(set.Vals, []byte(fmt.Sprintf("moved-%d", i)))
			}
		}
		if len(set.Keys) < 2 {
			t.Fatalf("the move covers %d of the keys written: too few for a set", len(set.Keys))
		}
		if err := hooker.Apply(&set); err != nil {
			t.Fatal(err)
		}
		for i, k := range set.Keys {
			for _, id := range mv.dst {
				env, _ := mc.nodes[id].getRaw(k)
				if v, ok := live(env); !ok || !bytes.Equal(v, set.Vals[i]) {
					t.Fatalf("move destination %d holds %q (live %v) under %q, want %q", id, v, ok, k, set.Vals[i])
				}
			}
		}
	}
	mc.Rebalance()
	if !checked {
		t.Fatal("no chunk hook ran: chunking did not engage")
	}
}
