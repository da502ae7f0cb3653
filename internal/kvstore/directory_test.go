package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"piql/internal/btree"
	"piql/internal/codec"
	"piql/internal/value"
)

// dirKeys is the key space of the directory's differential tests: codec
// keys of five namespaces (one of them DESC), keys equal to a namespace,
// byte keys that are no codec key, and malformed bytes that start with a
// component tag, some of them prefixes of a namespace's keys.
func dirKeys() [][]byte {
	var keys [][]byte
	for _, ns := range []string{"t:subscriptions", "t:thoughts", "t:users", "x:subscriptions_by_target"} {
		keys = append(keys, codec.EncodeKey(value.Row{value.Str(ns)}, nil))
		for u := range 6 {
			for j := range 4 {
				keys = append(keys, codec.EncodeKey(value.Row{value.Str(ns), value.Str(fmt.Sprintf("u%02d", u)), value.Int(int64(j))}, nil))
			}
		}
	}
	for j := range 6 {
		keys = append(keys, codec.EncodeKey(value.Row{value.Str("x:newest"), value.Int(int64(j))}, []bool{codec.Desc, codec.Asc}))
	}
	for j := range 6 {
		keys = append(keys, fmt.Appendf(nil, "key-%03d", j), fmt.Appendf(nil, "\x00pad%03d", j), []byte{0x80 + byte(j), 1})
	}
	users := codec.EncodeKey(value.Row{value.Str("t:users")}, nil)
	keys = append(keys,
		users[:len(users)-1],                            // a dangling escape
		append(bytes.Clone(users[:len(users)-1]), 0x02), // a bad escape
		users[:4], // unterminated
		[]byte{0x03, 0x02, 0x41},
		[]byte{0x06},
		[]byte{},
	)
	return keys
}

// dirRef is a directory beside one btree.Tree holding the same items.
// Each method does one operation to both and reports where they differ.
type dirRef struct {
	d   directory
	ref *btree.Tree
}

func newDirRef() *dirRef { return &dirRef{ref: btree.New()} }

func (m *dirRef) put(k, v []byte) error {
	m.d.Put(k, v)
	m.ref.Put(k, v)
	return m.get(k)
}

func (m *dirRef) delete(k []byte) error {
	if got, want := m.d.Delete(k), m.ref.Delete(k); got != want {
		return fmt.Errorf("Delete(%x) = %v, one tree says %v", k, got, want)
	}
	return m.get(k)
}

func (m *dirRef) get(k []byte) error {
	got, ok := m.d.Get(k)
	want, wok := m.ref.Get(k)
	if ok != wok || !bytes.Equal(got, want) {
		return fmt.Errorf("Get(%x) = %q, %v; one tree says %q, %v", k, got, ok, want, wok)
	}
	if m.d.Len() != m.ref.Len() {
		return fmt.Errorf("Len() = %d; one tree says %d", m.d.Len(), m.ref.Len())
	}
	return nil
}

// scan compares both walks of [lo, hi), in either direction, stopped after
// limit items (0: not stopped).
func (m *dirRef) scan(lo, hi []byte, limit int, reverse bool) error {
	walk := func(fn func(start, end []byte, visit func(item) bool)) []item {
		var out []item
		fn(lo, hi, func(it item) bool {
			out = append(out, it)
			return limit == 0 || len(out) < limit
		})
		return out
	}
	dirWalk, refWalk := m.d.Ascend, func(s, e []byte, f func(item) bool) { m.ref.Ascend(s, e, f) }
	if reverse {
		dirWalk, refWalk = m.d.Descend, func(s, e []byte, f func(item) bool) { m.ref.Descend(s, e, f) }
	}
	got, want := walk(dirWalk), walk(refWalk)
	if len(got) != len(want) {
		return fmt.Errorf("range [%x, %x) limit %d reverse %v: %d items, one tree has %d", lo, hi, limit, reverse, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			return fmt.Errorf("range [%x, %x) limit %d reverse %v: item %d is %x, one tree has %x", lo, hi, limit, reverse, i, got[i].Key, want[i].Key)
		}
	}
	return nil
}

// check holds the directory's shape: its spaces sorted by name, none
// empty, each holding exactly the keys whose namespace is its name, one
// space per namespace the reference holds.
func (m *dirRef) check() error {
	names := map[string]bool{}
	m.ref.Ascend(nil, nil, func(it item) bool {
		n, _ := codec.NamespaceLen(it.Key)
		names[string(it.Key[:n])] = true
		return true
	})
	if len(m.d.spaces) != len(names) {
		return fmt.Errorf("%d spaces for %d namespaces", len(m.d.spaces), len(names))
	}
	for i, s := range m.d.spaces {
		if i > 0 && bytes.Compare(m.d.spaces[i-1].name, s.name) >= 0 {
			return fmt.Errorf("space %d (%x) does not sort after %x", i, s.name, m.d.spaces[i-1].name)
		}
		if s.tree.Len() == 0 {
			return fmt.Errorf("space %x is empty", s.name)
		}
		var err error
		s.tree.Ascend(nil, nil, func(it item) bool {
			if n, ok := codec.NamespaceLen(it.Key); !bytes.Equal(it.Key[:n], s.name) || ok == s.one {
				err = fmt.Errorf("key %x is in space %x (one %v)", it.Key, s.name, s.one)
			}
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// dirBound is a range bound of each kind a read sends: nil, a key of the
// space, a prefix of one (a namespace, part of it, or past it) or a
// prefix's codec.PrefixEnd.
func dirBound(keys [][]byte, kind, k, cut byte) []byte {
	key := keys[int(k)%len(keys)]
	prefix := key[:int(cut)%(len(key)+1)]
	switch kind % 4 {
	case 0:
		return nil
	case 1:
		return key
	case 2:
		return prefix
	default:
		return codec.PrefixEnd(prefix)
	}
}

// dirOps runs an op sequence against the reference. Each op is four
// bytes, [op, k, a, b], on key k of dirKeys: a put, a delete, a get, an
// ascending or descending range between two bounds (dirBound) stopped
// after a>>5 items (0: not stopped), or a delete of every key of key k's
// namespace. The shape is checked after every namespace delete and at
// the end.
func dirOps(b []byte) error {
	keys := dirKeys()
	m := newDirRef()
	for op := 0; op+4 <= len(b); op += 4 {
		k := keys[int(b[op+1])%len(keys)]
		a, c := b[op+2], b[op+3]
		var err error
		switch b[op] % 8 {
		case 0, 1, 2:
			err = m.put(k, []byte{byte(op), a})
		case 3:
			err = m.delete(k)
		case 4:
			err = m.get(k)
		case 5, 6:
			lo, hi := dirBound(keys, a, a>>2, c), dirBound(keys, c, c>>2, a)
			err = m.scan(lo, hi, int(a>>5), b[op]%8 == 6)
		case 7:
			n, _ := codec.NamespaceLen(k)
			for _, key := range keys {
				if nk, _ := codec.NamespaceLen(key); bytes.Equal(key[:nk], k[:n]) && err == nil {
					err = m.delete(key)
				}
			}
			if err == nil {
				err = m.check()
			}
		}
		if err != nil {
			return fmt.Errorf("op %d: %w", op/4, err)
		}
	}
	return m.check()
}

// TestDirectoryMatchesOneTree holds a storage node's directory, one tree
// per namespace, to one btree.Tree over the same operations: random puts,
// deletes and gets over codec keys of several namespaces and raw and
// malformed keys, ranges in both directions with open, in-namespace,
// cross-namespace and codec.PrefixEnd bounds, stopped early by a limit,
// and deletes that empty a namespace.
func TestDirectoryMatchesOneTree(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		b := make([]byte, 4*400)
		r.Read(b)
		if err := dirOps(b); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzDirectory runs dirOps on arbitrary op sequences; its seeds fill
// every namespace and then range across them, and empty one namespace
// in the middle of the others.
func FuzzDirectory(f *testing.F) {
	var fill []byte
	for k := range len(dirKeys()) {
		fill = append(fill, 0, byte(k), 0, 0)
	}
	f.Add(append(bytes.Clone(fill), 5, 0, 0, 0, 6, 0, 0, 0, 6, 0, 0x66, 0x3b, 5, 0, 0x47, 0x9a))
	f.Add(append(bytes.Clone(fill), 7, 30, 0, 0, 6, 0, 0, 0, 5, 0, 0xe6, 0xe6))
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := dirOps(b); err != nil {
			t.Fatal(err)
		}
	})
}

// purgeKeys is dirKeys plus 600 keys of one namespace, so that a range
// cutting it deletes more than one chunk (purgeChunk).
func purgeKeys() [][]byte {
	keys := dirKeys()
	for u := range 30 {
		for j := range 20 {
			keys = append(keys, codec.EncodeKey(value.Row{value.Str("t:thoughts"), value.Str(fmt.Sprintf("v%03d", u)), value.Int(int64(j))}, nil))
		}
	}
	return keys
}

// purgeBound is a range bound of each kind a purge is given: nil, a key
// (inside its namespace, or a malformed one-key space), the start of a
// key's namespace, or the end of one.
func purgeBound(r *rand.Rand, keys [][]byte) []byte {
	k := keys[r.Intn(len(keys))]
	n, _ := codec.NamespaceLen(k)
	switch r.Intn(4) {
	case 0:
		return nil
	case 1:
		return k
	case 2:
		return k[:n]
	default:
		return codec.PrefixEnd(k[:n])
	}
}

// TestPurgeRangeMatchesPerKey holds node.purgeRange, the range delete a
// node runs on what it does not own, to deleting each key of the range
// alone. Each random node holds keys of several namespaces, malformed
// one-key spaces and tombstones; each range's bounds are open, inside a
// namespace, at a namespace's start or end, and often span several. The
// node must hold what the reference holds, in one non-empty space per
// namespace, with Len equal and n.tombs equal to a recount.
func TestPurgeRangeMatchesPerKey(t *testing.T) {
	keys := purgeKeys()
	for seed := int64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		nd := newNode(0, 1, &clock{born: time.Now()})
		m := newDirRef()
		for i, k := range keys {
			if r.Intn(3) == 0 {
				continue
			}
			env := makeEnvelope(Version{TS: int64(i + 1)}, r.Intn(4) == 0, []byte{byte(i)})
			nd.applyIfNewer(k, env)
			m.ref.Put(k, env)
		}
		lo, hi := purgeBound(r, keys), purgeBound(r, keys)
		if lo != nil && hi != nil && bytes.Compare(lo, hi) > 0 {
			lo, hi = hi, lo
		}
		nd.purgeRange(lo, hi)
		var gone [][]byte
		m.ref.Ascend(lo, hi, func(it item) bool {
			gone = append(gone, it.Key)
			return true
		})
		for _, k := range gone {
			m.ref.Delete(k)
		}

		m.d = nd.trees
		err := m.check()
		if err == nil {
			err = m.scan(nil, nil, 0, false)
		}
		if err == nil && m.d.Len() != m.ref.Len() {
			err = fmt.Errorf("Len() = %d; the reference holds %d", m.d.Len(), m.ref.Len())
		}
		tombs := 0
		m.ref.Ascend(nil, nil, func(it item) bool {
			if envIsTombstone(it.Value) {
				tombs++
			}
			return true
		})
		if err == nil && nd.tombs != tombs {
			err = fmt.Errorf("n.tombs = %d; the node holds %d tombstones", nd.tombs, tombs)
		}
		if err != nil {
			t.Fatalf("seed %d, purge [%x, %x) of %d keys: %v", seed, lo, hi, len(gone), err)
		}
	}
}
