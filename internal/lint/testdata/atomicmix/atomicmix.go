// Test fixture for the atomicmix analyzer: plain writes through a
// value obtained from an atomic Load — directly or via a helper whose
// AtomicResults summary marks its return as loaded.
package atomicmixfix

import "sync/atomic"

type payload struct {
	owners []string
	limit  int
}

type box struct {
	val atomic.Pointer[payload]
}

// badWriteThroughLoad: the Load result is a published
// snapshot other goroutines read concurrently; mutating it in place
// breaks copy-on-write.
func badWriteThroughLoad(b *box) {
	p := b.val.Load()
	p.limit = 7 // want `plain write through a value loaded from atomic field atomicmixfix\.box\.val \(Load at atomicmix\.go:\d+\): atomically-published state is copy-on-write`
}

// loadVal is an acquire-helper: its AtomicResults summary marks the
// return as loaded, so callers' writes are caught too.
func loadVal(b *box) *payload {
	return b.val.Load()
}

func badWriteViaHelper(b *box) {
	p := loadVal(b)
	p.owners = append(p.owners, "n1") // want `plain write through a value loaded from atomic field atomicmixfix\.box\.val via loadVal`
}

// okCopyOnWrite: the sanctioned mutation — copy, modify, Store.
func okCopyOnWrite(b *box) {
	old := b.val.Load()
	next := &payload{owners: append([]string(nil), old.owners...), limit: old.limit + 1}
	b.val.Store(next)
}

// okValueCopyMutation: dereferencing the Load into a struct value
// copies it; the field write lands in the copy and republishing takes
// a Store — copy-on-write spelled with a value.
func okValueCopyMutation(b *box) {
	p := *b.val.Load()
	p.limit = 9
	b.val.Store(&p)
}

// badSliceElemThroughCopy: the struct copy still shares its slice's
// backing array with the published value — an element write tears.
func badSliceElemThroughCopy(b *box) {
	p := *b.val.Load()
	p.owners[0] = "mutated" // want `plain write through a value loaded from atomic field atomicmixfix\.box\.val`
}

// okLeafCopy: copying leaf data out of a loaded snapshot copies bytes;
// it does not alias the published value.
func okLeafCopy(b *box) int {
	p := b.val.Load()
	limit := p.limit
	limit++
	return limit
}
