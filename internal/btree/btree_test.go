package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
	"weak"
)

func key(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Fatal("new tree not empty")
	}
	if _, ok := tr.Get([]byte("x")); ok {
		t.Fatal("Get on empty tree returned ok")
	}
	if tr.Delete([]byte("x")) {
		t.Fatal("Delete on empty tree returned true")
	}
	n := 0
	tr.Ascend(nil, nil, func(Item) bool { n++; return true })
	if n != 0 {
		t.Fatal("Ascend on empty tree visited items")
	}
}

func TestPutGetOverwrite(t *testing.T) {
	tr := New()
	if !tr.Put([]byte("a"), []byte("1")) {
		t.Fatal("first Put not reported as insert")
	}
	if tr.Put([]byte("a"), []byte("2")) {
		t.Fatal("overwrite reported as insert")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	v, ok := tr.Get([]byte("a"))
	if !ok || string(v) != "2" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
}

func TestLargeSequentialAndReverse(t *testing.T) {
	const n = 10000
	for _, reverse := range []bool{false, true} {
		tr := New()
		for i := 0; i < n; i++ {
			j := i
			if reverse {
				j = n - 1 - i
			}
			tr.Put(key(j), key(j))
		}
		if tr.Len() != n {
			t.Fatalf("Len = %d, want %d", tr.Len(), n)
		}
		prev := []byte(nil)
		count := 0
		tr.Ascend(nil, nil, func(it Item) bool {
			if prev != nil && bytes.Compare(prev, it.Key) >= 0 {
				t.Fatalf("out of order: %q then %q", prev, it.Key)
			}
			prev = it.Key
			count++
			return true
		})
		if count != n {
			t.Fatalf("Ascend visited %d, want %d", count, n)
		}
	}
}

func TestRangeBounds(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Put(key(i), nil)
	}
	var got []string
	tr.Ascend(key(10), key(15), func(it Item) bool {
		got = append(got, string(it.Key))
		return true
	})
	want := []string{"key-00000010", "key-00000011", "key-00000012", "key-00000013", "key-00000014"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Descending over the same range.
	got = got[:0]
	tr.Descend(key(10), key(15), func(it Item) bool {
		got = append(got, string(it.Key))
		return true
	})
	for i := range want {
		if got[i] != want[len(want)-1-i] {
			t.Fatalf("descend got %v", got)
		}
	}
	if tr.Count(key(10), key(15)) != 5 {
		t.Fatalf("Count = %d, want 5", tr.Count(key(10), key(15)))
	}
}

func TestEarlyStop(t *testing.T) {
	tr := New()
	for i := 0; i < 1000; i++ {
		tr.Put(key(i), nil)
	}
	n := 0
	tr.Ascend(nil, nil, func(Item) bool { n++; return n < 7 })
	if n != 7 {
		t.Fatalf("early stop visited %d, want 7", n)
	}
	n = 0
	tr.Descend(nil, nil, func(Item) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("descend early stop visited %d, want 3", n)
	}
}

func TestDeleteAll(t *testing.T) {
	const n = 5000
	tr := New()
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, i := range perm {
		tr.Put(key(i), key(i))
	}
	for _, i := range perm {
		if !tr.Delete(key(i)) {
			t.Fatalf("Delete(%d) = false", i)
		}
		if tr.Delete(key(i)) {
			t.Fatalf("double Delete(%d) = true", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
}

// TestDeletedItemIsReleased loads 100 keys in order, deletes one and
// requires the key's bytes to be collectable while the tree lives: no
// slot of a node's array past its length may keep the deleted item, nor a
// copy of it that a split moved to another node. The victims are key 99,
// the last of its leaf; key 50, whose copy the first split left in the
// old array's tail; and key 0, the first. A key is 16 bytes, past the
// runtime's tiny allocator, which packs smaller pointer-free objects into
// one block that lives while any of them does.
func TestDeletedItemIsReleased(t *testing.T) {
	keyAt := func(i int) *[16]byte {
		k := new([16]byte)
		binary.BigEndian.PutUint64(k[:], uint64(i))
		return k
	}
	for _, victim := range []int{99, 50, 0} {
		tr := New()
		var released weak.Pointer[[16]byte]
		for i := 0; i < 100; i++ {
			k := keyAt(i)
			if i == victim {
				released = weak.Make(k)
			}
			tr.Put(k[:], nil)
		}
		if !tr.Delete(keyAt(victim)[:]) {
			t.Fatalf("Delete(%d) = false", victim)
		}
		runtime.GC()
		runtime.GC()
		if released.Value() != nil {
			t.Errorf("key %d is still reachable from the tree after its delete", victim)
		}
		runtime.KeepAlive(tr)
	}
}

// census returns the number of items a tree holds, the number of slots
// its nodes' item arrays have room for, and the number of its nodes.
func census(tr *Tree) (items, slots, nodes int) {
	var walk func(n *node)
	walk = func(n *node) {
		items += len(n.items)
		slots += cap(n.items)
		nodes++
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(tr.root)
	return items, slots, nodes
}

// leastHeight is the fewest levels that hold n items: h levels of full
// nodes hold (maxItems+1)^h - 1.
func leastHeight(n int) int {
	h := 1
	for held := maxItems; held < n; held = held*(maxItems+1) + maxItems {
		h++
	}
	return h
}

// TestInOrderLoadFillsNodes loads 100 000 store-shaped keys (storeKey)
// in ascending and in descending order, as the store's loaders do. The
// nodes must be at least 95 % full (items ÷ (nodes × maxItems)), since
// a leaf split where the load goes leaves the other half full, and the
// tree no taller than n items need. The nodes' item arrays must be at
// least 95 % full too, since a split leaves the full-sized array to the
// half the load goes on filling and the other an exact copy. A load in
// random order is logged, not checked.
func TestInOrderLoadFillsNodes(t *testing.T) {
	const n = 100000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, load := range []struct {
		name    string
		key     func(i int) int
		inOrder bool
	}{
		{"ascending", func(i int) int { return i }, true},
		{"descending", func(i int) int { return n - 1 - i }, true},
		{"random", func(i int) int { return perm[i] }, false},
	} {
		tr := New()
		for i := 0; i < n; i++ {
			k := storeKey(load.key(i), n)
			tr.Put(k, k)
		}
		items, slots, nodes := census(tr)
		occupancy, fill := float64(items)/float64(nodes*maxItems), float64(items)/float64(slots)
		t.Logf("%s: %d items in %d nodes of %d levels, %.3f occupied; %d slots, %.3f full",
			load.name, items, nodes, height(tr), occupancy, slots, fill)
		if !load.inOrder {
			continue
		}
		if occupancy < 0.95 {
			t.Errorf("a load in %s order leaves the nodes %.3f occupied; want at least 0.95", load.name, occupancy)
		}
		if h := height(tr); h != leastHeight(n) {
			t.Errorf("a load in %s order grows %d levels; %d items need %d", load.name, h, n, leastHeight(n))
		}
		if fill < 0.95 {
			t.Errorf("a load in %s order leaves the item arrays %.3f full; want at least 0.95", load.name, fill)
		}
	}
}

// TestSparseLeaves inserts pairs of keys into the gap below a leaf's
// upper separator, each pair below the last: the first key of a pair
// lands at the leaf's end and fills it, the second lands past it and
// splits the full leaf at its end, leaving a leaf of one item. So every
// second insert splits a leaf at its end, and the tree grows thousands
// of one-item leaves under internal nodes that fill from their start.
// Along the way and while every key is deleted again in random order,
// which borrows into and merges one-item leaves, the tree must match
// its model and its shape (checkNode: internal nodes keep degree-1
// items), and be at most one level taller than its items need.
func TestSparseLeaves(t *testing.T) {
	const pairs = 20000
	const gap = 2*pairs + 2
	k := func(i int) []byte { return fmt.Appendf(nil, "k%09d", i) }
	m := newRefTree()
	check := func(when string) {
		t.Helper()
		if err := m.check(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if h, least := height(m.tr), leastHeight(m.tr.Len()); h > least+1 {
			t.Fatalf("%s: %d items in %d levels; they need %d", when, m.tr.Len(), h, least)
		}
	}
	put := func(i int) {
		t.Helper()
		if err := m.put(k(i), k(i)); err != nil {
			t.Fatal(err)
		}
	}
	// An ascending load of maxItems+1 keys splits the full leaf at its
	// end: the leaf keeps maxItems-1 items, up to k(125·gap), below the
	// separator k(126·gap).
	for i := range maxItems + 1 {
		put(i * gap)
	}
	top := (maxItems - 1) * gap
	for j := 1; j <= pairs; j++ {
		put(top - 2*j)
		put(top - 2*j + 1)
		if j%2000 == 0 {
			check(fmt.Sprintf("after %d pairs", j))
		}
	}
	ones := 0
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf() && len(n.items) == 1 {
			ones++
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(m.tr.root)
	if ones < pairs {
		t.Fatalf("%d pairs left %d leaves of one item; want one a pair", pairs, ones)
	}
	t.Logf("%d items in %d levels (%d needed), %d leaves of one item", m.tr.Len(), height(m.tr), leastHeight(m.tr.Len()), ones)

	left := make([]string, 0, len(m.ref))
	for key := range m.ref {
		left = append(left, key)
	}
	sort.Strings(left)
	rand.New(rand.NewSource(1)).Shuffle(len(left), func(i, j int) { left[i], left[j] = left[j], left[i] })
	for i, key := range left {
		if err := m.delete([]byte(key)); err != nil {
			t.Fatal(err)
		}
		if i%4000 == 0 {
			check(fmt.Sprintf("after %d deletes", i))
		}
	}
	check("after every delete")
}

// refTree is a tree beside its reference model, a map. Each method does
// one operation to both and reports where they disagree.
type refTree struct {
	tr  *Tree
	ref map[string]string
}

func newRefTree() *refTree { return &refTree{tr: New(), ref: map[string]string{}} }

func (m *refTree) put(k, v []byte) error {
	_, existed := m.ref[string(k)]
	if inserted := m.tr.Put(k, v); inserted == existed {
		return fmt.Errorf("Put(%q) reports inserted %v; the model held the key: %v", k, inserted, existed)
	}
	m.ref[string(k)] = string(v)
	return nil
}

// putUnless is PutUnless keeping an old value that does not sort below
// the new one (keepNotBelow), as a store keeps the newer of two versions.
func (m *refTree) putUnless(k, v []byte) error {
	rv, existed := m.ref[string(k)]
	kept := existed && rv >= string(v)
	old, found, stored := m.tr.PutUnless(k, v, keepNotBelow)
	if found != existed || string(old) != rv || stored == kept {
		return fmt.Errorf("PutUnless(%q, %q) = %q, found %v, stored %v; the model holds %q, %v", k, v, old, found, stored, rv, existed)
	}
	if !kept {
		m.ref[string(k)] = string(v)
	}
	return nil
}

func keepNotBelow(old, val []byte) bool { return bytes.Compare(old, val) >= 0 }

func (m *refTree) delete(k []byte) error {
	_, existed := m.ref[string(k)]
	if removed := m.tr.Delete(k); removed != existed {
		return fmt.Errorf("Delete(%q) reports %v; the model held the key: %v", k, removed, existed)
	}
	delete(m.ref, string(k))
	return nil
}

func (m *refTree) get(k []byte) error {
	v, ok := m.tr.Get(k)
	if rv, rok := m.ref[string(k)]; ok != rok || string(v) != rv {
		return fmt.Errorf("Get(%q) = %q, %v; the model holds %q, %v", k, v, ok, rv, rok)
	}
	return nil
}

// scan compares Ascend, Descend and Count over [lo, hi) — a nil bound is
// open, an empty one is not — with the model.
func (m *refTree) scan(lo, hi []byte) error {
	var want []string
	for k := range m.ref {
		if (lo == nil || k >= string(lo)) && (hi == nil || k < string(hi)) {
			want = append(want, k)
		}
	}
	sort.Strings(want)
	var asc, desc []Item
	m.tr.Ascend(lo, hi, func(it Item) bool { asc = append(asc, it); return true })
	m.tr.Descend(lo, hi, func(it Item) bool { desc = append(desc, it); return true })
	if len(asc) != len(want) || len(desc) != len(want) {
		return fmt.Errorf("[%q, %q): Ascend visits %d items, Descend %d; the model holds %d", lo, hi, len(asc), len(desc), len(want))
	}
	for i, k := range want {
		a, d := asc[i], desc[len(want)-1-i]
		if string(a.Key) != k || string(a.Value) != m.ref[k] || string(d.Key) != k || string(d.Value) != m.ref[k] {
			return fmt.Errorf("[%q, %q): item %d is %q=%q ascending, %q=%q descending; the model's is %q=%q",
				lo, hi, i, a.Key, a.Value, d.Key, d.Value, k, m.ref[k])
		}
	}
	if n := m.tr.Count(lo, hi); n != len(want) {
		return fmt.Errorf("Count(%q, %q) = %d; the model holds %d", lo, hi, n, len(want))
	}
	return nil
}

// check compares the length and a whole scan with the model, and checks
// the tree's shape (checkNode).
func (m *refTree) check() error {
	if m.tr.Len() != len(m.ref) {
		return fmt.Errorf("Len = %d; the model holds %d", m.tr.Len(), len(m.ref))
	}
	if _, err := checkNode(m.tr.root, true, nil, nil); err != nil {
		return err
	}
	return m.scan(nil, nil)
}

// checkNode checks the subtree at n: an internal node but the root holds
// degree-1 to maxItems items and one child more than items, a leaf but
// the root 1 to maxItems (a leaf split at its end keeps one), no slot of an array past its length holds an item or a child (a
// deleted key, a dead subtree or a half moved to another node, kept
// reachable), keys ascend strictly and lie inside (lo, hi) — the
// separators around the subtree, nil for none — every key starts with
// the node's prefix, which is at most maxPrefix bytes, each item has its
// head, and every leaf lies at one depth, which it returns.
func checkNode(n *node, root bool, lo, hi []byte) (int, error) {
	least := degree - 1
	if n.leaf() {
		least = 1
	}
	if len(n.items) > maxItems || (!root && len(n.items) < least) {
		return 0, fmt.Errorf("a node holds %d items", len(n.items))
	}
	if len(n.heads) != len(n.items) {
		return 0, fmt.Errorf("a node of %d items has %d heads", len(n.items), len(n.heads))
	}
	if n.lcp > maxPrefix {
		return 0, fmt.Errorf("a node's prefix is %d bytes; at most %d fit", n.lcp, maxPrefix)
	}
	for i, it := range n.items {
		if !bytes.HasPrefix(it.Key, n.pre[:n.lcp]) {
			return 0, fmt.Errorf("key %q does not start with its node's prefix %q", it.Key, n.pre[:n.lcp])
		}
		if h := headOf(it.Key, n.lcp); n.heads[i] != h {
			return 0, fmt.Errorf("key %q past prefix %q has head %#08x; its node holds %#08x", it.Key, n.pre[:n.lcp], h, n.heads[i])
		}
	}
	for j, it := range n.items[len(n.items):cap(n.items)] {
		if it.Key != nil || it.Value != nil {
			return 0, fmt.Errorf("a node of %d items holds %q in vacated slot %d", len(n.items), it.Key, len(n.items)+j)
		}
	}
	for j, c := range n.children[len(n.children):cap(n.children)] {
		if c != nil {
			return 0, fmt.Errorf("a node of %d children holds a child in vacated slot %d", len(n.children), len(n.children)+j)
		}
	}
	prev := lo
	for _, it := range n.items {
		if prev != nil && bytes.Compare(it.Key, prev) <= 0 || hi != nil && bytes.Compare(it.Key, hi) >= 0 {
			return 0, fmt.Errorf("key %q lies outside (%q, %q)", it.Key, prev, hi)
		}
		prev = it.Key
	}
	if n.leaf() {
		return 1, nil
	}
	if len(n.children) != len(n.items)+1 {
		return 0, fmt.Errorf("a node of %d items has %d children", len(n.items), len(n.children))
	}
	depth := 0
	for i, c := range n.children {
		clo, chi := lo, hi
		if i > 0 {
			clo = n.items[i-1].Key
		}
		if i < len(n.items) {
			chi = n.items[i].Key
		}
		d, err := checkNode(c, false, clo, chi)
		if err != nil {
			return 0, err
		}
		if i > 0 && d != depth {
			return 0, fmt.Errorf("leaves at depths %d and %d", depth, d)
		}
		depth = d
	}
	return depth + 1, nil
}

// TestNodeIsOneSizeClass holds a node at 128 bytes, the size its
// inline prefix is chosen to fill: a field more moves every node to the
// next size class.
func TestNodeIsOneSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(node{}); size != 128 {
		t.Errorf("a node is %d bytes; want 128", size)
	}
}

// TestSearchAtPrefixEdges runs Get, Ascend, Descend and Count against the
// reference model where a search leans on the node's prefix and heads:
// keys that are prefixes of one another, whose zero-padded heads tie;
// probes that stop inside the prefix, leave it below or above, or equal
// it; keys that share more than maxPrefix bytes, as TPC-W's do; an insert
// that lowers a full leaf's prefix; and a merge of two nodes with
// different prefixes.
func TestSearchAtPrefixEdges(t *testing.T) {
	// probeAll gets every probe and scans between every two of them and
	// the open bound, then checks the whole tree.
	probeAll := func(t *testing.T, m *refTree, probes [][]byte) {
		t.Helper()
		bounds := append([][]byte{nil}, probes...)
		for _, p := range probes {
			if err := m.get(p); err != nil {
				t.Fatal(err)
			}
		}
		for _, lo := range bounds {
			for _, hi := range bounds {
				if err := m.scan(lo, hi); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := m.check(); err != nil {
			t.Fatal(err)
		}
	}
	put := func(t *testing.T, m *refTree, keys ...[]byte) {
		t.Helper()
		for _, k := range keys {
			if err := m.put(k, k); err != nil {
				t.Fatal(err)
			}
		}
	}
	const shared = "t:thoughts\x00\x01owner-00042\x00\x01"

	t.Run("keys that prefix one another", func(t *testing.T) {
		m := newRefTree()
		var probes [][]byte
		for _, k := range []string{"k", "k\x00", "k\x00\x00", "k\x00\x00\x00", "k\x00\x00\x00\x00", "k\x00\x01", "k\x01"} {
			probes = append(probes, []byte(shared+k))
		}
		put(t, m, probes[0], probes[2], probes[4], probes[6])
		probes = append(probes, []byte(shared), []byte(shared+"j\xff"), []byte(shared+"k\x00\x00\x00\x00\x00"))
		probeAll(t, m, probes)
		put(t, m, probes[1], probes[3], probes[5])
		probeAll(t, m, probes)
	})

	t.Run("probes at the prefix", func(t *testing.T) {
		m := newRefTree()
		for i := range 40 {
			put(t, m, fmt.Appendf(nil, "%s%08d", shared, i))
		}
		if m.tr.root.lcp < len(shared) {
			t.Fatalf("a leaf of keys that share %d bytes keeps a prefix of %d", len(shared), m.tr.root.lcp)
		}
		p := []byte(shared)
		below, above := bytes.Clone(p), bytes.Clone(p)
		below[5]--
		above[5]++
		probes := [][]byte{{}, p[:1], p[:5], p[:len(p)-1], p, below, above,
			append(bytes.Clone(p[:len(p)-1]), 0), append(bytes.Clone(p), 0xff),
			fmt.Appendf(nil, "%s%08d", shared, 7), fmt.Appendf(nil, "%s%07d", shared, 7), fmt.Appendf(nil, "%s%09d", shared, 7)}
		probeAll(t, m, probes)
	})

	t.Run("keys that share more than the node holds", func(t *testing.T) {
		m := newRefTree()
		long := strings.Repeat("x:orders_by_customer\x00\x01", 3)[:60]
		key := func(i int) []byte { return fmt.Appendf(nil, "%s%07d", long, i) }
		r := rand.New(rand.NewSource(1))
		for _, i := range r.Perm(500) {
			put(t, m, key(i*2))
		}
		if height(m.tr) < 2 {
			t.Fatalf("the tree has %d levels; the case needs 2", height(m.tr))
		}
		probes := [][]byte{[]byte(long), []byte(long[:maxPrefix]), []byte(long[:maxPrefix+1]), key(0), key(1), key(500), key(501), key(998), key(999)}
		probeAll(t, m, probes)
		for i := range 500 {
			if err := m.delete(key(i * 2)); err != nil {
				t.Fatal(err)
			}
		}
		probeAll(t, m, probes)
	})

	t.Run("an insert that lowers a full leaf's prefix", func(t *testing.T) {
		m := newRefTree()
		for i := range maxItems - 1 {
			put(t, m, fmt.Appendf(nil, "%s%08d", shared, i*2))
		}
		before := m.tr.root.lcp
		stray := []byte("t:thoughts\x00\x01owner-00041\x00\x01")
		put(t, m, stray)
		if len(m.tr.root.items) != maxItems || m.tr.root.lcp >= before {
			t.Fatalf("the leaf holds %d items under a prefix of %d bytes (%d before the insert); want %d items under a shorter one",
				len(m.tr.root.items), m.tr.root.lcp, before, maxItems)
		}
		probeAll(t, m, [][]byte{stray, []byte(shared), fmt.Appendf(nil, "%s%08d", shared, 3), fmt.Appendf(nil, "%s%08d", shared, 4)})
	})

	t.Run("a merge of nodes with different prefixes", func(t *testing.T) {
		m := newRefTree()
		left := func(i int) []byte { return fmt.Appendf(nil, "t:thoughts\x00\x01%08d", i) }
		right := func(i int) []byte { return fmt.Appendf(nil, "t:users\x00\x01%08d", i) }
		// The last insert lands inside the full leaf, not at its end, so
		// the leaf splits at its median, left(degree-1), into one leaf
		// of each table.
		for i := range degree {
			put(t, m, left(i))
		}
		for i := 1; i < degree; i++ {
			put(t, m, right(i))
		}
		put(t, m, right(0))
		if height(m.tr) != 2 || len(m.tr.root.items) != 1 {
			t.Fatalf("the tree has %d levels and %d separators; the case needs two leaves", height(m.tr), len(m.tr.root.items))
		}
		for _, c := range m.tr.root.children {
			if c.lcp <= len("t:") {
				t.Fatalf("a leaf of one table keeps a prefix of %d bytes", c.lcp)
			}
		}
		// The right leaf drops to degree-1 items, so a delete on the
		// left can borrow from neither side and merges the two.
		for _, k := range [][]byte{right(0), left(0)} {
			if err := m.delete(k); err != nil {
				t.Fatal(err)
			}
		}
		if height(m.tr) != 1 || m.tr.root.lcp != len("t:") {
			t.Fatalf("after the merge the tree has %d levels and a prefix of %d bytes; want 1 level and %d", height(m.tr), m.tr.root.lcp, len("t:"))
		}
		probeAll(t, m, [][]byte{left(0), left(5), right(0), right(5), []byte("t:"), []byte("t:thoughts"), []byte("t:u"), []byte("t:zz")})
	})
}

// height is the number of levels of the tree.
func height(tr *Tree) int {
	h := 1
	for n := tr.root; !n.leaf(); n = n.children[0] {
		h++
	}
	return h
}

// storeKey is key i of a key space shaped like a storage node's: an
// escaped namespace string (a table's t:<table>, an index's x:<index>),
// then the leading key columns, so that neighbouring keys share most of
// their bytes. Five namespaces split the space evenly.
func storeKey(i, space int) []byte {
	per := (space + len(namespaces) - 1) / len(namespaces)
	return fmt.Appendf(nil, "%s\x00\x01owner-%05d\x00\x01%08d", namespaces[i/per], i%per/16, i%16)
}

var namespaces = []string{"t:subscriptions", "t:thoughts", "t:users", "x:subscriptions_by_target", "x:thoughts_by_owner_timestamp"}

// storeBound is a range bound of the kind the store sends: nil (open), or
// a prefix of a key of the space — none of its bytes, the namespace, part
// of a column or all of it.
func storeBound(r *rand.Rand, space int) []byte {
	if r.Intn(4) == 0 {
		return nil
	}
	k := storeKey(r.Intn(space), space)
	return k[:r.Intn(len(k)+1)]
}

// TestAgainstReferenceModel drives the tree with random op sequences and
// compares every observable against a map. The small part keeps 200
// four-byte keys, a tree of one or two levels. The deep part grows
// store-shaped keys (storeKey) past three levels, with sorted runs among
// its random puts, churns them and deletes them all, so that a delete
// borrows from and merges internal nodes and sparse leaves too; it checks the tree's shape (checkNode) and ranges whose
// bounds are prefixes of stored keys, empty or open, along the way.
func TestAgainstReferenceModel(t *testing.T) {
	small := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := newRefTree()
		const keySpace = 200
		k := func() []byte { return fmt.Appendf(nil, "k%03d", r.Intn(keySpace)) }
		for op := 0; op < 500; op++ {
			var err error
			switch r.Intn(5) {
			case 0, 1:
				err = m.put(k(), fmt.Appendf(nil, "v%d", op))
			case 2:
				err = m.putUnless(k(), fmt.Appendf(nil, "v%d", op))
			case 3:
				err = m.delete(k())
			default:
				err = m.get(k())
			}
			if err != nil {
				t.Log(err)
				return false
			}
		}
		if err := m.check(); err != nil {
			t.Log(err)
			return false
		}
		if err := m.scan(k(), k()); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(small, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}

	for seed := int64(1); seed <= 3; seed++ {
		if err := deepRun(seed); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// deepRun is the deep part of TestAgainstReferenceModel on one seed. Two
// levels hold at most (2·degree)² keys, and a random load leaves its
// nodes about 70 % full, so grown keys take the tree past two levels
// (3 584 at degree 32, 14 336 at 64) out of a space a little larger.
func deepRun(seed int64) error {
	const grown = 7 * degree * degree / 2
	const space, churn = 7 * grown / 5, grown / 2
	r := rand.New(rand.NewSource(seed))
	m := newRefTree()
	ops, tallest := 0, 0
	// step does one random operation: a put with chance puts in 10 (half
	// of them conditional), else a delete or, one time in 10, a get. One
	// time in 200 while it puts, it puts a sorted run instead: up to
	// 2·maxItems consecutive keys from the drawn one, ascending or
	// descending, a load into the middle of the tree that splits the
	// leaves it fills at their ends. Every 1000 operations it checks the
	// whole tree and a range.
	step := func(puts int) error {
		i := r.Intn(space)
		k := storeKey(i, space)
		var err error
		switch c := r.Intn(10); {
		case puts > 0 && r.Intn(200) == 0:
			end, down := min(i+1+r.Intn(2*maxItems), space), r.Intn(2) == 0
			for j := i; j < end && err == nil; j++ {
				at := j
				if down {
					at = i + end - 1 - j
				}
				err = m.put(storeKey(at, space), fmt.Appendf(nil, "v%d", ops))
			}
		case c < puts && c%2 == 1:
			err = m.putUnless(k, fmt.Appendf(nil, "v%d", ops))
		case c < puts:
			err = m.put(k, fmt.Appendf(nil, "v%d", ops))
		case c < 9:
			err = m.delete(k)
		default:
			err = m.get(k)
		}
		if ops++; err == nil && ops%1000 == 0 {
			tallest = max(tallest, height(m.tr))
			if err = m.check(); err == nil {
				err = m.scan(storeBound(r, space), storeBound(r, space))
			}
		}
		return err
	}
	for m.tr.Len() < grown {
		if err := step(8); err != nil {
			return err
		}
	}
	for i := 0; i < churn; i++ {
		if err := step(4); err != nil {
			return err
		}
	}
	// Every key goes, in random order, a random delete or get between two.
	left := make([]string, 0, len(m.ref))
	for k := range m.ref {
		left = append(left, k)
	}
	sort.Strings(left)
	r.Shuffle(len(left), func(i, j int) { left[i], left[j] = left[j], left[i] })
	for _, k := range left {
		if err := m.delete([]byte(k)); err != nil {
			return err
		}
		if err := step(0); err != nil {
			return err
		}
	}
	if err := m.check(); err != nil {
		return err
	}
	if m.tr.Len() != 0 || height(m.tr) != 1 {
		return fmt.Errorf("%d items in %d levels after every key was deleted", m.tr.Len(), height(m.tr))
	}
	if tallest < 3 {
		return fmt.Errorf("the tree grew to %d levels; the run needs 3", tallest)
	}
	return nil
}

// FuzzTreeOps runs an op sequence against the reference model. Each op
// is four bytes, [op, hi, lo, n], on key (hi<<8|lo) of a store-shaped
// space (storeKey): a put, a conditional put (PutUnless), a delete, a get, a range whose bounds are
// prefixes of two keys (a length past a key's is an open bound), or a
// put or delete of the n·2·degree consecutive keys from the key on, so
// that a short input grows or shrinks a tree of three levels (an
// ascending load of (2·degree)² keys fills two). Each op's answer
// is checked; the whole tree and its shape after every bulk op and at
// the end. The checked-in corpus (testdata/fuzz/FuzzTreeOps) replays
// under plain `go test`.
func FuzzTreeOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		const space, bulk = 1 << 15, 2 * degree
		m := newRefTree()
		key := func(hi, lo byte) (int, []byte) {
			i := (int(hi)<<8 | int(lo)) % space
			return i, storeKey(i, space)
		}
		bound := func(k []byte, n byte) []byte {
			if int(n) > len(k) {
				return nil
			}
			return k[:n]
		}
		for op := 0; op+4 <= len(b) && op < 4*64; op += 4 {
			i, k := key(b[op+1], b[op+2])
			n := b[op+3]
			var err error
			switch b[op] % 8 {
			case 0:
				err = m.put(k, []byte{byte(op), n})
			case 1:
				err = m.putUnless(k, []byte{n, byte(op)})
			case 2:
				err = m.delete(k)
			case 3:
				err = m.get(k)
			case 4, 5:
				_, k2 := key(n, b[op+1])
				err = m.scan(bound(k, n), bound(k2, n^b[op+2]))
			case 6, 7:
				for j := i; j < min(i+int(n)*bulk, space) && err == nil; j++ {
					if b[op]%8 == 6 {
						err = m.put(storeKey(j, space), []byte{byte(op)})
					} else {
						err = m.delete(storeKey(j, space))
					}
				}
				if err == nil {
					err = m.check()
				}
			}
			if err != nil {
				t.Fatalf("op %d: %v", op/4, err)
			}
		}
		if err := m.check(); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkLoad loads 10 000 store-shaped keys (storeKey), a table the
// size of TPC-W's items, into an empty tree in ascending, descending and
// random order; an op is one whole load. It reports the nodes the tree
// ends with per 1 000 keys (nodes/1k-keys; 1000/maxItems, 7.9, is every
// node full) and the slots of the nodes' item arrays per item
// (slots/item; 1 is every array full).
func BenchmarkLoad(b *testing.B) {
	const n = 10000
	for _, order := range []string{"ascending", "descending", "random"} {
		b.Run(order, func(b *testing.B) {
			keys := make([][]byte, n)
			for i := range keys {
				keys[i] = storeKey(i, n)
			}
			switch order {
			case "descending":
				slices.Reverse(keys)
			case "random":
				rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			}
			b.ReportAllocs()
			var tr *Tree
			for b.Loop() {
				tr = New()
				for _, k := range keys {
					tr.Put(k, k)
				}
			}
			items, slots, nodes := census(tr)
			b.ReportMetric(float64(nodes)*1000/n, "nodes/1k-keys")
			b.ReportMetric(float64(slots)/float64(items), "slots/item")
		})
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New()
	const n = 100000
	for i := 0; i < n; i++ {
		tr.Put(key(i), key(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(key(i % n))
	}
}

// BenchmarkGetSharedPrefix is Get on a tree of 100 000 store-shaped keys
// (storeKey), whose neighbours share most of their bytes, as the keys of
// one node of a storage node do: what each probe of a search compares
// before it finds a difference.
func BenchmarkGetSharedPrefix(b *testing.B) {
	const n = 100000
	tr := New()
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = storeKey(i, n)
		tr.Put(keys[i], keys[i])
	}
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for i := 0; b.Loop(); i++ {
		if _, ok := tr.Get(keys[i%n]); !ok {
			b.Fatal("a stored key is missing")
		}
	}
}

// BenchmarkDescendSharedPrefix is a 10-item descending scan bounded by
// one owner's prefix, scadr_home's recent-thoughts read, on a tree of
// 100 000 store-shaped keys (storeKey). Each level's search for the end
// bound lands inside the node's shared prefix.
func BenchmarkDescendSharedPrefix(b *testing.B) {
	const n = 100000
	tr := New()
	for i := range n {
		k := storeKey(i, n)
		tr.Put(k, k)
	}
	const bounds = 1024
	starts, ends := make([][]byte, bounds), make([][]byte, bounds)
	r := rand.New(rand.NewSource(1))
	for j := range bounds {
		k := storeKey(r.Intn(n), n)
		starts[j] = k[:len(k)-len("00000000")]
		ends[j] = bytes.Clone(starts[j])
		ends[j][len(ends[j])-1]++
	}
	for i := 0; b.Loop(); i++ {
		got := 0
		tr.Descend(starts[i%bounds], ends[i%bounds], func(Item) bool { got++; return got < 10 })
		if got != 10 {
			b.Fatalf("the scan visited %d items; want 10", got)
		}
	}
}
