// Package btree implements an in-memory ordered map: a classic B-tree
// over []byte keys with ascending and descending range iteration. A
// simulated storage node of the key/value store keeps one per table and
// per index (kvstore's directory).
//
// A node searches by 4-byte key heads past the prefix its keys share
// (see node). A full leaf that an insert reaches at its end splits there,
// not at the median, so a load in key order leaves the leaves it passes
// full; and a split leaves the node's arrays to the half the incoming
// key falls in, so those arrays are full too (see splitChild).
//
// The tree is not safe for concurrent use; the storage node serializes
// access.
package btree

import (
	"bytes"
	"encoding/binary"
	"slices"
)

// degree is the minimum number of children of an internal node but the
// root. An internal node but the root holds between degree-1 and
// 2*degree-1 items, a leaf but the root between 1 and 2*degree-1: a leaf
// split at its end (splitChild) starts the new leaf with one item. At 64
// a table of up to about 16 000 rows loaded in key order, as a storage
// node holds one, is two levels deep.
const degree = 64

const maxItems = 2*degree - 1

// Item is a key/value pair stored in the tree.
type Item struct {
	Key   []byte
	Value []byte
}

// maxPrefix is the most bytes of its keys' shared prefix a node copies.
// It makes a node exactly 128 bytes, one size class.
const maxPrefix = 48

// A node keeps, beside its items, what a search compares: every key
// starts with pre[:lcp], and heads[i] is the 4 bytes of items[i].Key
// after that prefix (headOf). A search checks the probe against pre once
// and then compares heads, small integers held in the node, reading a key
// only where two heads tie. Every write to items goes through insertAt,
// setAt, deleteAt, splitChild or mergeChildren, which keep the heads in
// step (`make lint` holds to that).
type node struct {
	items    []Item   // sorted by key
	children []*node  // len(children) == len(items)+1 for internal nodes
	heads    []uint32 // heads[i] == headOf(items[i].Key, lcp)
	lcp      int      // every key starts with pre[:lcp]; lcp <= maxPrefix
	pre      [maxPrefix]byte
}

func (n *node) leaf() bool { return len(n.children) == 0 }

// Tree is a B-tree mapping []byte keys to []byte values. The zero value is
// not usable; call New.
type Tree struct {
	root *node
	size int
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{}}
}

// Len returns the number of items in the tree.
func (t *Tree) Len() int { return t.size }

// Get returns the value stored under key, or (nil, false).
func (t *Tree) Get(key []byte) ([]byte, bool) {
	n := t.root
	for {
		i, found := n.search(key)
		if found {
			return n.items[i].Value, true
		}
		if n.leaf() {
			return nil, false
		}
		n = n.children[i]
	}
}

// search returns the index of the first item >= key and whether it equals
// key. A key that leaves the node's prefix lies before or after every
// item, which one compare with the prefix tells; one inside it is found
// by its head, and only where heads tie by the bytes past the prefix.
func (n *node) search(key []byte) (int, bool) {
	items, lcp := n.items, n.lcp
	if len(key) < lcp || !bytes.Equal(key[:lcp], n.pre[:lcp]) {
		if bytes.Compare(key, n.pre[:lcp]) < 0 {
			return 0, false
		}
		return len(items), false
	}
	h, rest := headOf(key, lcp), key[lcp:]
	lo, hi := 0, len(items)
	for lo < hi {
		mid := (lo + hi) / 2
		if m := n.heads[mid]; m < h || m == h && bytes.Compare(items[mid].Key[lcp:], rest) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(items) && n.heads[lo] == h && bytes.Equal(items[lo].Key[lcp:], rest) {
		return lo, true
	}
	return lo, false
}

// headOf is the 4 bytes of key after its first lcp, big-endian and
// zero-padded. Zero-padding keeps the order: a key below another has a
// head no greater, so unequal heads order their keys.
func headOf(key []byte, lcp int) uint32 {
	rest := key[lcp:]
	if len(rest) < 4 {
		var b [4]byte
		copy(b[:], rest)
		rest = b[:]
	}
	return binary.BigEndian.Uint32(rest)
}

// admit readies n for key, which is about to join its items: an empty
// node takes key's leading bytes as its prefix, and a key that leaves the
// prefix lowers it to the bytes they share and re-derives every head.
func (n *node) admit(key []byte) {
	if len(n.items) == 0 {
		n.lcp = copy(n.pre[:], key)
		return
	}
	if !bytes.HasPrefix(key, n.pre[:n.lcp]) {
		n.lcp = sharedLen(n.pre[:n.lcp], key)
		n.rehead()
	}
}

// reprefix sets n's prefix to the longest its first and last keys share,
// which every key between them shares too, and re-derives its heads. A
// split and a merge call it on the nodes they make. An empty node (the
// half of a leaf split at its end that the key is about to start) keeps
// no prefix: admit takes the key's.
func (n *node) reprefix() {
	n.lcp = 0
	if len(n.items) > 0 {
		first, last := n.items[0].Key, n.items[len(n.items)-1].Key
		n.lcp = copy(n.pre[:], first[:sharedLen(first, last)])
	}
	n.rehead()
}

// rehead re-derives every head from the node's keys and prefix.
func (n *node) rehead() {
	n.heads = n.heads[:0]
	for _, it := range n.items {
		n.heads = append(n.heads, headOf(it.Key, n.lcp))
	}
}

// sharedLen is the length of the longest common prefix of a and b.
func sharedLen(a, b []byte) int {
	l := min(len(a), len(b))
	for i := range l {
		if a[i] != b[i] {
			return i
		}
	}
	return l
}

// insertAt inserts it at index i of n's items.
func (n *node) insertAt(i int, it Item) {
	n.admit(it.Key)
	n.items = append(n.items, Item{})
	copy(n.items[i+1:], n.items[i:])
	n.items[i] = it
	n.heads = append(n.heads, 0)
	copy(n.heads[i+1:], n.heads[i:])
	n.heads[i] = headOf(it.Key, n.lcp)
}

// setAt replaces item i of n with it.
func (n *node) setAt(i int, it Item) {
	n.admit(it.Key)
	n.items[i] = it
	n.heads[i] = headOf(it.Key, n.lcp)
}

// deleteAt removes item i of n, clearing the slot it vacates.
func (n *node) deleteAt(i int) {
	n.items = slices.Delete(n.items, i, i+1)
	n.heads = slices.Delete(n.heads, i, i+1)
}

// Put inserts or replaces the value under key and reports whether the key
// was newly inserted. Key and value slices are retained, not copied. A
// node does copy up to 48 bytes of the prefix its keys share, into an
// array of its own.
func (t *Tree) Put(key, val []byte) bool {
	_, found, _ := t.PutUnless(key, val, nil)
	return !found
}

// maxHeight is more levels than a tree grows: the root has at least two
// children and every other internal node at least degree, so h levels
// have at least 2·degree^(h-2) leaves, and every leaf holds an item.
const maxHeight = 16

// PutUnless stores val under key unless the key is present and keep(old,
// val) reports that its value old stays; a nil keep keeps nothing, which
// is Put. It returns old, whether the key was present, and whether val
// was stored. It descends once: the search records the position it took
// at each level, and only an insert goes down again, by those positions,
// splitting each full node on its path as it goes (splitChild). So a
// value kept or replaced splits no node.
func (t *Tree) PutUnless(key, val []byte, keep func(old, val []byte) bool) (old []byte, found, stored bool) {
	var at [maxHeight + 1]int // at[d]: key's position in the node at depth d
	n, d := t.root, 0
	for {
		i, ok := n.search(key)
		if ok {
			old = n.items[i].Value
			if keep != nil && keep(old, val) {
				return old, true, false
			}
			n.items[i].Value = val
			return old, true, true
		}
		at[d] = i
		if n.leaf() {
			break
		}
		n, d = n.children[i], d+1
	}
	if len(t.root.items) == maxItems {
		// The full root becomes child 0 of a new root, one level up.
		t.root = &node{children: []*node{t.root}}
		copy(at[1:d+2], at[:d+1])
		at[0], d = 0, d+1
	}
	n = t.root
	for l := 0; l < d; l++ {
		i := at[l]
		if len(n.children[i].items) == maxItems {
			if s := n.splitChild(i, at[l+1]); at[l+1] > s {
				// Past the item that went up: the right half holds
				// the full node's items and children from s+1 on.
				i++
				at[l+1] -= s + 1
			}
		}
		n = n.children[i]
	}
	n.insertAt(at[d], Item{Key: key, Value: val})
	t.size++
	return nil, false, true
}

// splitChild splits the full child at index i, in which the key about
// to be inserted falls at position at, moves item s of the child up and
// returns s. s is the median, but for a leaf the key reaches at an end:
// past its last item (an ascending run) the left keeps every item but
// the last, which goes up, and the key starts the right leaf; before its
// first (a descending run) the first goes up and the key starts the
// left. A load in key order never writes the half it leaves again, so
// that half stays full. An internal node always splits at the median, so
// that it keeps degree-1 items and the tree its height (maxHeight).
//
// The half the key falls in keeps the child's arrays, grown to hold a
// full node, and the other half gets exact copies, so that an in-order
// load leaves its item arrays as full as its nodes.
func (n *node) splitChild(i, at int) int {
	child := n.children[i]
	s := degree - 1
	if child.leaf() {
		switch at {
		case 0:
			s = 0
		case maxItems:
			s = maxItems - 1
		}
	}
	up := child.items[s]
	toRight := at > s
	right := &node{}
	child.items, right.items = halve(child.items, s, s+1, toRight)
	child.heads, right.heads = halve(child.heads, s, s+1, toRight)
	child.reprefix()
	right.reprefix()
	if !child.leaf() {
		child.children, right.children = halve(child.children, s+1, s+1, toRight)
	}

	n.insertAt(i, up)
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
	return s
}

// halve splits s into s[:lo] and s[hi:]. The right half keeps s's array
// if keepRight, moved to its front, and the left half does otherwise; the
// other half is a copy. halve clears every slot of the array past the
// half that keeps it, so that no item or child it held (the median, the
// copied half) stays reachable from there.
func halve[T any](s []T, lo, hi int, keepRight bool) (left, right []T) {
	kept := lo
	if keepRight {
		left = slices.Clone(s[:lo])
		kept = copy(s, s[hi:])
		right = s[:kept]
	} else {
		left, right = s[:lo], slices.Clone(s[hi:])
	}
	clear(s[kept:])
	return left, right
}

// Delete removes key from the tree and reports whether it was present.
func (t *Tree) Delete(key []byte) bool {
	removed := t.root.remove(key)
	if len(t.root.items) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	if removed {
		t.size--
	}
	return removed
}

func (n *node) remove(key []byte) bool {
	i, found := n.search(key)
	if n.leaf() {
		if !found {
			return false
		}
		n.deleteAt(i)
		return true
	}
	if found {
		// Replace with predecessor from the left child, then remove it there.
		left := n.children[i]
		if len(left.items) >= degree {
			pred := left.max()
			n.setAt(i, pred)
			return left.remove(pred.Key)
		}
		right := n.children[i+1]
		if len(right.items) >= degree {
			succ := right.min()
			n.setAt(i, succ)
			return right.remove(succ.Key)
		}
		n.mergeChildren(i)
		return n.children[i].remove(key)
	}
	child := n.children[i]
	if len(child.items) < degree {
		i = n.fill(i)
		child = n.children[i]
	}
	return child.remove(key)
}

// fill gives child i, which holds fewer than degree items, one more item
// at least before a delete descends into it, borrowing from a sibling
// that holds degree or more or merging with one that holds fewer (at
// most maxItems together): an internal child then keeps degree-1 after
// the delete, a leaf one. Returns the (possibly shifted) child index to
// descend into.
func (n *node) fill(i int) int {
	if i > 0 && len(n.children[i-1].items) >= degree {
		n.borrowFromLeft(i)
		return i
	}
	if i < len(n.children)-1 && len(n.children[i+1].items) >= degree {
		n.borrowFromRight(i)
		return i
	}
	if i == len(n.children)-1 {
		n.mergeChildren(i - 1)
		return i - 1
	}
	n.mergeChildren(i)
	return i
}

func (n *node) borrowFromLeft(i int) {
	child, left := n.children[i], n.children[i-1]
	child.insertAt(0, n.items[i-1])
	last := len(left.items) - 1
	n.setAt(i-1, left.items[last])
	left.deleteAt(last)
	if !left.leaf() {
		last := len(left.children) - 1
		moved := left.children[last]
		left.children[last] = nil
		left.children = left.children[:last]
		child.children = append(child.children, nil)
		copy(child.children[1:], child.children)
		child.children[0] = moved
	}
}

func (n *node) borrowFromRight(i int) {
	child, right := n.children[i], n.children[i+1]
	child.insertAt(len(child.items), n.items[i])
	n.setAt(i, right.items[0])
	right.deleteAt(0)
	if !right.leaf() {
		moved := right.children[0]
		right.children = slices.Delete(right.children, 0, 1)
		child.children = append(child.children, moved)
	}
}

// mergeChildren merges child i, separator item i, and child i+1.
func (n *node) mergeChildren(i int) {
	left, right := n.children[i], n.children[i+1]
	left.items = append(left.items, n.items[i])
	left.items = append(left.items, right.items...)
	left.reprefix()
	left.children = append(left.children, right.children...)
	n.deleteAt(i)
	n.children = slices.Delete(n.children, i+1, i+2)
}

func (n *node) min() Item {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.items[0]
}

func (n *node) max() Item {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.items[len(n.items)-1]
}
