package kvstore

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"piql/internal/codec"
	"piql/internal/value"
)

// scadrKeys is a SCADr-shaped key set in the loader's order: each of
// users users followed by their ten thoughts, then ten subscriptions per
// user with random targets, 21 keys a user over three tables. It returns
// the keys and each user's thoughts prefix.
func scadrKeys(users int) (keys, thoughts [][]byte) {
	r := rand.New(rand.NewSource(1))
	put := func(vals ...value.Value) { keys = append(keys, codec.EncodeKey(vals, nil)) }
	name := func(u int) value.Value { return value.Str(fmt.Sprintf("u%07d", u)) }
	for u := range users {
		put(value.Str("t:users"), name(u))
		for i := range 10 {
			put(value.Str("t:thoughts"), name(u), value.Int(int64(1_000_000+10*u+i)))
		}
		thoughts = append(thoughts, codec.EncodeKey(value.Row{value.Str("t:thoughts"), name(u)}, nil))
	}
	for u := range users {
		for range 10 {
			put(value.Str("t:subscriptions"), name(u), name(r.Intn(users)))
		}
	}
	return keys, thoughts
}

// scadrRecord is the value of every scadrKeys item.
var scadrRecord = []byte("a record of about forty bytes, like SCADr's")

// scadrNode loads one storage node with scadrKeys(users), in order. It
// returns the node, every key it holds and each user's thoughts prefix.
func scadrNode(users int) (n *node, keys, thoughts [][]byte) {
	n = newNode(0, 1, &clock{born: time.Now()})
	keys, thoughts = scadrKeys(users)
	for i, k := range keys {
		n.applyIfNewer(k, makeEnvelope(Version{TS: int64(i + 1)}, false, scadrRecord))
	}
	return n, keys, thoughts
}

// BenchmarkNodeRead is one storage node's read cost on a node that holds
// several tables, 63 000 items: get, a point read of a random stored key,
// and descend, a user's ten newest thoughts (scan in reverse, limit 10,
// into a warm buffer), the shape of SCADr's recent thoughts.
func BenchmarkNodeRead(b *testing.B) {
	n, keys, thoughts := scadrNode(3000)
	ends := make([][]byte, len(thoughts))
	for i, p := range thoughts {
		ends[i] = codec.PrefixEnd(p)
	}
	r := rand.New(rand.NewSource(2))
	b.Run("get", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := n.getRaw(keys[r.Intn(len(keys))]); !ok {
				b.Fatal("a stored key is missing")
			}
		}
	})
	b.Run("descend", func(b *testing.B) {
		dst := make([]KV, 0, 10)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			u := r.Intn(len(thoughts))
			if dst = n.scan(dst[:0], thoughts[u], ends[u], 10, true); len(dst) != 10 {
				b.Fatalf("%d thoughts, want 10", len(dst))
			}
		}
	})
}

// BenchmarkRebalance is one Rebalance of a fresh immediate cluster of 4
// nodes at RF 2 that holds scadrKeys(1000), 21 000 keys, all written
// before it (so on the one partition of epoch 0): the sampling, the copy
// of three quarters of the keys to their new owners and the purge of
// what each node no longer owns. Loading is not timed.
func BenchmarkRebalance(b *testing.B) {
	keys, _ := scadrKeys(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := New(Config{Nodes: 4, ReplicationFactor: 2, Seed: 1}, nil)
		cl := c.NewClient(nil)
		for _, k := range keys {
			if err := cl.Put(k, scadrRecord); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		c.Rebalance()
		if parts := len(c.Splits()) + 1; parts != 4 {
			b.Fatalf("%d partitions, want 4", parts)
		}
	}
}
