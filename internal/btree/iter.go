package btree

import "bytes"

// Ascend visits items with start <= key < end in ascending order, calling
// fn for each; iteration stops early when fn returns false. A nil start
// means "from the beginning"; a nil end means "to the end". It reports
// whether it stopped early, at end or where fn said so: a caller walking
// several trees in key order goes on to the next only when it did not.
func (t *Tree) Ascend(start, end []byte, fn func(Item) bool) (stopped bool) {
	return !t.root.ascend(start, end, fn)
}

func (n *node) ascend(start, end []byte, fn func(Item) bool) bool {
	i := 0
	if start != nil {
		i, _ = n.search(start)
	}
	for ; i < len(n.items); i++ {
		it := n.items[i]
		if !n.leaf() {
			if !n.children[i].ascend(start, end, fn) {
				return false
			}
		}
		if end != nil && bytes.Compare(it.Key, end) >= 0 {
			return false
		}
		if !fn(it) {
			return false
		}
		// search put i at the first item >= start, so every item and
		// subtree from here on lies past it: the children to come need
		// not search for start.
		start = nil
	}
	if !n.leaf() {
		return n.children[len(n.items)].ascend(start, end, fn)
	}
	return true
}

// Descend visits items with start <= key < end in descending order
// (greatest first), calling fn for each; stops early when fn returns
// false. Bounds and the report have the same meaning as in Ascend.
func (t *Tree) Descend(start, end []byte, fn func(Item) bool) (stopped bool) {
	return !t.root.descend(start, end, fn)
}

func (n *node) descend(start, end []byte, fn func(Item) bool) bool {
	i := len(n.items)
	if end != nil {
		i, _ = n.search(end)
	}
	for ; i > 0; i-- {
		it := n.items[i-1]
		if !n.leaf() {
			if !n.children[i].descend(start, end, fn) {
				return false
			}
		}
		if start != nil && bytes.Compare(it.Key, start) < 0 {
			return false
		}
		if !fn(it) {
			return false
		}
		// search put i past the last item < end, so, as in ascend, the
		// children to come need not search for end.
		end = nil
	}
	if !n.leaf() {
		return n.children[0].descend(start, end, fn)
	}
	return true
}

// Count returns the number of items with start <= key < end. Bounds have
// the same meaning as in Ascend.
func (t *Tree) Count(start, end []byte) int {
	n := 0
	t.Ascend(start, end, func(Item) bool {
		n++
		return true
	})
	return n
}
