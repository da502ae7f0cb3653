package kvstore

import (
	"bytes"
	"slices"

	"piql/internal/btree"
	"piql/internal/codec"
)

// item is a stored key and its envelope, as a range walk visits them.
type item = btree.Item

// directory is a storage node's records: one btree.Tree per namespace
// (codec.NamespaceLen: a table's t:<table>, an index's x:<index>), kept
// in namespace order. So a tree compares keys of one table or index
// only, and a node near its root tells rows apart instead of namespaces.
// A namespace is one contiguous run of keys, so a range walks the trees
// in order and stops where a tree stops. A namespace whose tree empties
// leaves the directory. It is the only code of the package that names
// btree (`make lint`); the node's mu guards it.
type directory struct {
	spaces []*space // sorted by name
	last   *space   // the space the last key was found in, or nil
}

// space is one namespace and its tree.
type space struct {
	name []byte
	// one is set for a name codec.NamespaceLen reports !ok: malformed
	// bytes that hold the one key equal to them. Otherwise every key
	// that starts with name is in the space.
	one  bool
	tree *btree.Tree
}

// holds reports whether key belongs to s.
func (s *space) holds(key []byte) bool {
	if s.one {
		return bytes.Equal(key, s.name)
	}
	return bytes.HasPrefix(key, s.name)
}

// at returns the index of the last space whose name is at most key, or
// -1. A key's own namespace, when the directory has it, is that space:
// a name between the namespace and the key would lie inside the
// namespace's run of keys.
func (d *directory) at(key []byte) int {
	lo, hi := 0, len(d.spaces)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(d.spaces[mid].name, key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// find returns the space that holds key, or nil. Consecutive operations
// mostly stay in one namespace, so the last space found is tried first,
// with no search and no parse of the key.
func (d *directory) find(key []byte) *space {
	if s := d.last; s != nil && s.holds(key) {
		return s
	}
	i := d.at(key)
	if i < 0 || !d.spaces[i].holds(key) {
		return nil
	}
	d.last = d.spaces[i]
	return d.last
}

// Len returns the number of items the node stores, tombstones included.
func (d *directory) Len() int {
	n := 0
	for _, s := range d.spaces {
		n += s.tree.Len()
	}
	return n
}

// Get returns the envelope stored under key, or (nil, false).
func (d *directory) Get(key []byte) ([]byte, bool) {
	if s := d.find(key); s != nil {
		return s.tree.Get(key)
	}
	return nil, false
}

// Put stores env under key, opening key's namespace if the directory
// lacks it.
func (d *directory) Put(key, env []byte) {
	d.PutUnless(key, env, nil)
}

// PutUnless stores env under key unless the key holds an envelope old
// that keep(old, env) keeps, as btree.Tree.PutUnless does, opening key's
// namespace if the directory lacks it. It returns old, whether the key
// was present, and whether env was stored.
func (d *directory) PutUnless(key, env []byte, keep func(old, env []byte) bool) (old []byte, found, stored bool) {
	s := d.find(key)
	if s == nil {
		n, ok := codec.NamespaceLen(key)
		s = &space{name: bytes.Clone(key[:n]), one: !ok, tree: btree.New()}
		d.spaces = slices.Insert(d.spaces, d.at(key)+1, s)
		d.last = s
	}
	return s.tree.PutUnless(key, env, keep)
}

// Delete removes key and reports whether it was present; the last key of
// a namespace takes the namespace with it.
func (d *directory) Delete(key []byte) bool {
	s := d.find(key)
	if s == nil || !s.tree.Delete(key) {
		return false
	}
	if s.tree.Len() == 0 {
		i := d.at(s.name)
		d.spaces = slices.Delete(d.spaces, i, i+1)
		d.last = nil
	}
	return true
}

// purgeChunk is how many keys DeleteRange collects from a tree before it
// deletes them: a tree cannot be walked while keys leave it, and a
// bounded chunk keeps the collected keys' memory from growing with the
// range.
const purgeChunk = 256

// DeleteRange removes every item with start <= key < end (nil bounds
// are open), calling gone, when it is not nil, with each item it
// removes. A namespace that lies wholly inside the range leaves the
// directory with its tree, no key deleted; in a namespace the range
// cuts, the keys inside it are deleted purgeChunk at a time, and a tree
// that empties takes its namespace with it.
func (d *directory) DeleteRange(start, end []byte, gone func(item)) {
	i := 0
	if start != nil {
		i = max(d.at(start), 0)
	}
	var chunk [purgeChunk][]byte
	for i < len(d.spaces) {
		s := d.spaces[i]
		if end != nil && bytes.Compare(s.name, end) >= 0 {
			return // every key from here on is at or past end
		}
		inside := (start == nil || bytes.Compare(start, s.name) <= 0) &&
			(end == nil || s.one || !bytes.HasPrefix(end, s.name))
		if !inside {
			for {
				keys := chunk[:0]
				s.tree.Ascend(start, end, func(it item) bool {
					if gone != nil {
						gone(it)
					}
					keys = append(keys, it.Key)
					return len(keys) < purgeChunk
				})
				for _, k := range keys {
					s.tree.Delete(k)
				}
				if len(keys) < purgeChunk {
					break
				}
			}
		} else if gone != nil {
			s.tree.Ascend(nil, nil, func(it item) bool {
				gone(it)
				return true
			})
		}
		if inside || s.tree.Len() == 0 {
			d.spaces = slices.Delete(d.spaces, i, i+1)
			d.last = nil
			continue
		}
		i++
	}
}

// Ascend visits the items with start <= key < end in ascending order
// until fn returns false; nil bounds are open, as in btree.Tree.Ascend.
// It begins at the last namespace that begins at or before start, and
// only that tree searches for start: every later key lies past it.
func (d *directory) Ascend(start, end []byte, fn func(item) bool) {
	i := 0
	if start != nil {
		i = max(d.at(start), 0)
	}
	for ; i < len(d.spaces); i++ {
		if d.spaces[i].tree.Ascend(start, end, fn) {
			return
		}
		start = nil
	}
}

// Descend visits the items with start <= key < end in descending order
// until fn returns false, as Ascend does in reverse: it begins at the
// last namespace that begins at or before end, and only that tree
// searches for end.
func (d *directory) Descend(start, end []byte, fn func(item) bool) {
	i := len(d.spaces) - 1
	if end != nil {
		i = d.at(end)
	}
	for ; i >= 0; i-- {
		if d.spaces[i].tree.Descend(start, end, fn) {
			return
		}
		end = nil
	}
}
