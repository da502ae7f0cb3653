// Package btree implements the in-memory ordered map that backs each
// simulated storage node in the key/value store: a classic B-tree over
// []byte keys with ascending and descending range iteration.
//
// The tree is not safe for concurrent use; kvstore.Node serializes access.
package btree

import (
	"bytes"
	"slices"
)

// degree is the minimum number of children of an internal node. Nodes hold
// between degree-1 and 2*degree-1 items (except the root).
const degree = 32

const maxItems = 2*degree - 1

// Item is a key/value pair stored in the tree.
type Item struct {
	Key   []byte
	Value []byte
}

type node struct {
	items    []Item  // sorted by key
	children []*node // len(children) == len(items)+1 for internal nodes
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
		i, found := search(n.items, key)
		if found {
			return n.items[i].Value, true
		}
		if n.leaf() {
			return nil, false
		}
		n = n.children[i]
	}
}

// search returns the index of the first item >= key and whether it equals key.
func search(items []Item, key []byte) (int, bool) {
	lo, hi := 0, len(items)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(items[mid].Key, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(items) && bytes.Equal(items[lo].Key, key) {
		return lo, true
	}
	return lo, false
}

// Put inserts or replaces the value under key and reports whether the key
// was newly inserted. Key and value slices are retained, not copied.
func (t *Tree) Put(key, val []byte) bool {
	if len(t.root.items) == maxItems {
		old := t.root
		t.root = &node{children: []*node{old}}
		t.root.splitChild(0, key)
	}
	inserted := t.root.insert(key, val)
	if inserted {
		t.size++
	}
	return inserted
}

// insert adds key into the (non-full) subtree rooted at n.
func (n *node) insert(key, val []byte) bool {
	i, found := search(n.items, key)
	if found {
		n.items[i].Value = val
		return false // replaced, not newly inserted
	}
	if n.leaf() {
		n.items = append(n.items, Item{})
		copy(n.items[i+1:], n.items[i:])
		n.items[i] = Item{Key: key, Value: val}
		return true
	}
	if len(n.children[i].items) == maxItems {
		n.splitChild(i, key)
		switch c := bytes.Compare(key, n.items[i].Key); {
		case c == 0:
			n.items[i].Value = val
			return false
		case c > 0:
			i++
		}
	}
	return n.children[i].insert(key, val)
}

// splitChild splits the full child at index i, moving its median item up.
// key is the key about to be inserted: the half it falls in keeps the
// child's arrays, grown to hold a full node, and the other half gets
// exact copies. A load in key order then fills every node: an
// ascending load never writes a left half again, a descending one never
// a right half, and each keeps a copy of just its size while the growing
// half refills the full-sized array.
func (n *node) splitChild(i int, key []byte) {
	child := n.children[i]
	median := child.items[degree-1]
	toRight := bytes.Compare(key, median.Key) > 0
	right := &node{}
	child.items, right.items = halve(child.items, degree-1, degree, toRight)
	if !child.leaf() {
		child.children, right.children = halve(child.children, degree, degree, toRight)
	}

	n.items = append(n.items, Item{})
	copy(n.items[i+1:], n.items[i:])
	n.items[i] = median
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
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
	i, found := search(n.items, key)
	if n.leaf() {
		if !found {
			return false
		}
		n.items = slices.Delete(n.items, i, i+1)
		return true
	}
	if found {
		// Replace with predecessor from the left child, then remove it there.
		left := n.children[i]
		if len(left.items) >= degree {
			pred := left.max()
			n.items[i] = pred
			return left.remove(pred.Key)
		}
		right := n.children[i+1]
		if len(right.items) >= degree {
			succ := right.min()
			n.items[i] = succ
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

// fill ensures child i has at least degree items before descending,
// borrowing from a sibling or merging. Returns the (possibly shifted)
// child index to descend into.
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
	child.items = append(child.items, Item{})
	copy(child.items[1:], child.items)
	child.items[0] = n.items[i-1]
	last := len(left.items) - 1
	n.items[i-1], left.items[last] = left.items[last], Item{}
	left.items = left.items[:last]
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
	child.items = append(child.items, n.items[i])
	n.items[i] = right.items[0]
	right.items = slices.Delete(right.items, 0, 1)
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
	left.children = append(left.children, right.children...)
	n.items = slices.Delete(n.items, i, i+1)
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
