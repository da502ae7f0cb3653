package exec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"

	"piql/internal/codec"
	"piql/internal/core"
	"piql/internal/index"
	"piql/internal/kvstore"
	"piql/internal/schema"
	"piql/internal/value"
)

// An operator builds its keys in two passes. The first evaluates its key
// specs into a row on its own stack (an [8]value.Value; a key of more
// columns grows onto the heap) and sums codec.Size; the second encodes
// every key into one buffer of that size, taken from the scratch, and
// carves each key from it. An operator's keys cost that buffer and the
// slice of their headers, never an allocation per key, and nothing once
// the scratch has room for them. The row stays on the stack only while
// nothing it is passed to keeps it: TestWarmExecuteAllocations pins every
// shape's run, the same on one key as on three.

// keySpace returns what every key of ix starts with — the table's record
// prefix for the primary index, else the index's namespace — and the
// direction of each component after it (nil: all ascending).
func keySpace(ix *schema.Index, t *schema.Table) (ns []byte, desc []bool) {
	if ix.Primary {
		return index.RecordPrefix(t), nil
	}
	return index.IndexPrefix(ix), ix.EntryLayout().Desc[1:]
}

// keySize is the length of appendKey(nil, ns, vals, desc), whatever desc.
func keySize(ns []byte, vals value.Row) int {
	n := len(ns)
	for _, v := range vals {
		n += codec.Size(v)
	}
	return n
}

// appendKey appends ns, then vals encoded in the directions desc gives.
func appendKey(dst, ns []byte, vals value.Row, desc []bool) []byte {
	dst = append(dst, ns...)
	for i, v := range vals {
		dst = codec.AppendValue(dst, v, desc != nil && desc[i])
	}
	return dst
}

// carve returns the key buf[from:], capped at its length so that appending
// to it can never run into the key after it; nil when it is empty, which
// for an end is PrefixEnd's "no end".
func carve(buf []byte, from int) []byte {
	if len(buf) == from {
		return nil
	}
	return buf[from:len(buf):len(buf)]
}

// pkRecordKeys builds n record keys of table t: key i is the values of
// specs[i] or, given outer rows, of specs[0] against outer[i] — a lookup's
// keys, or a join's one key on each child row.
func pkRecordKeys(sc *scratch, t *schema.Table, n int, specs []core.KeySpec, outer []value.Row, params []value.Value) ([][]byte, error) {
	var scratch [8]value.Value
	ns, size := index.RecordPrefix(t), 0
	for i := 0; i < n; i++ {
		spec, row := pkSpec(specs, outer, i)
		pk, err := spec.AppendEval(scratch[:0], params, row)
		if err != nil {
			return nil, err
		}
		size += keySize(ns, pk)
	}
	buf, keys := take(&sc.keys, size)[:0], take(&sc.heads, n)
	for i := range keys {
		spec, row := pkSpec(specs, outer, i)
		pk, err := spec.AppendEval(scratch[:0], params, row)
		if err != nil {
			return nil, err
		}
		from := len(buf)
		buf = appendKey(buf, ns, pk, nil)
		keys[i] = carve(buf, from)
	}
	return keys, nil
}

// pkSpec is pkRecordKeys' key i: its spec and the row the spec reads.
func pkSpec(specs []core.KeySpec, outer []value.Row, i int) (core.KeySpec, value.Row) {
	if outer == nil {
		return specs[i], nil
	}
	return specs[0], outer[i]
}

// runPKLookup fetches at most one record per key, and one per distinct
// key: an IN list that names a value twice, as two literals or once as a
// parameter, names one row.
func (e *executor) runPKLookup(n *core.PKLookup) ([]value.Row, error) {
	keys, err := pkRecordKeys(e.sc, n.Table, len(n.Keys), n.Keys, nil, e.ctx.Params)
	if err != nil {
		return nil, err
	}
	rows, err := e.fetchRecords(dropRepeatedKeys(keys), n.Table, n.TableOffset, n.Skip)
	if err != nil {
		return nil, err
	}
	return e.filterResidual(rows, n.Residual)
}

// dropRepeatedKeys removes, in place, every key byte-equal to an earlier
// one, keeping the first of each in order. The check is pairwise: a key
// list is no longer than the plan's static bound on reads, and one key
// costs nothing.
func dropRepeatedKeys(keys [][]byte) [][]byte {
	n := 0
next:
	for _, k := range keys {
		for _, seen := range keys[:n] {
			if bytes.Equal(seen, k) {
				continue next
			}
		}
		keys[n] = k
		n++
	}
	return keys[:n]
}

// fetchRecords resolves keys in one batch and decodes each record of t
// found, but for the columns in skip, into a combined row at the table's
// offset, skipping the nil entries of keys that had no record. The rows,
// headers and values, are the scratch's; their strings lie in the fetch's
// own arena.
func (e *executor) fetchRecords(keys [][]byte, t *schema.Table, offset int, skip uint64) ([]value.Row, error) {
	set, err := e.issue(kvstore.RequestSet{Kind: kvstore.Gets, Keys: keys})
	if err != nil {
		return nil, err
	}
	rows := take(&e.sc.rows, len(set.Values))[:0]
	slab := e.rows(len(set.Values))
	var arena strings.Builder
	arena.Grow(stringBytes(set.Values, skip))
	for _, rec := range set.Values {
		if rec == nil {
			continue
		}
		row := slab.row()
		if err := placeRecord(row, offset, len(t.Columns), skip, rec, &arena); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// scanBounds computes the byte range of an index scan from its equality
// prefix and optional inequality bounds, honoring the direction of the
// range component's encoding. The prefix, its end and each bound (or its
// end) share one buffer.
func scanBounds(sc *scratch, n *core.IndexScan, params []value.Value) (start, end []byte, err error) {
	var scratch [8]value.Value
	eq, err := core.KeySpec(n.Eq).AppendEval(scratch[:0], params, nil)
	if err != nil {
		return nil, nil, err
	}
	index.NormalizeTokens(n.Index, eq)
	ns, desc := keySpace(n.Index, n.Table)
	// In value space Lower/Upper are fixed; in byte space a descending
	// component swaps their roles.
	lo, hi := n.Lower, n.Upper
	compDesc := desc != nil && (lo != nil || hi != nil) && desc[len(eq)]
	if compDesc {
		lo, hi = hi, lo
	}
	var vals [2]value.Value     // lo's and hi's
	size := 2 * keySize(ns, eq) // the prefix and its end
	for i, b := range [2]*core.RangeBound{lo, hi} {
		if b == nil {
			continue
		}
		if vals[i], err = b.Expr.Eval(params, nil); err != nil {
			return nil, nil, err
		}
		size += 2 * (keySize(ns, eq) + codec.Size(vals[i])) // the bound and its end
	}
	buf := appendKey(take(&sc.keys, size)[:0], ns, eq, desc)
	prefix := carve(buf, 0)
	buf = codec.AppendPrefixEnd(buf, prefix)
	start, end = prefix, carve(buf, len(prefix))
	if lo != nil { // an exclusive lower bound starts past every key it prefixes
		buf, start = appendBound(buf, prefix, vals[0], compDesc, !lo.Inclusive)
	}
	if hi != nil { // an inclusive upper bound ends past every key it prefixes
		_, end = appendBound(buf, prefix, vals[1], compDesc, hi.Inclusive)
	}
	return start, end, nil
}

// appendBound appends to buf the key prefix+v — a range bound on the
// component after the prefix — and, if past, that key's PrefixEnd after
// it. It returns buf and the last key it appended.
func appendBound(buf, prefix []byte, v value.Value, desc, past bool) ([]byte, []byte) {
	from := len(buf)
	buf = codec.AppendValue(append(buf, prefix...), v, desc)
	if !past {
		return buf, carve(buf, from)
	}
	end := len(buf)
	buf = codec.AppendPrefixEnd(buf, buf[from:])
	return buf, carve(buf, end)
}

// successor returns the smallest key greater than prefix+k, carved from
// the scratch: a request bound, read only while its set is issued.
func successor(sc *scratch, prefix, k []byte) []byte {
	buf := take(&sc.keys, len(prefix)+len(k)+1)
	copy(buf[copy(buf, prefix):], k)
	buf[len(buf)-1] = 0x00
	return buf
}

// runIndexScan reads one contiguous index section into rows whose
// headers and values are the scratch's; their strings lie in the scan's
// own arena.
func (e *executor) runIndexScan(n *core.IndexScan) ([]value.Row, error) {
	start, end, err := scanBounds(e.sc, n, e.ctx.Params)
	if err != nil {
		return nil, err
	}
	paging, reverse := e.plan.Pager == core.Physical(n), !n.Ascending
	if at := e.ctx.Resume; paging && len(at) > 0 {
		// The position is bytes from outside the program: inside the scan's
		// own section it moves a bound inward, anywhere else it is refused —
		// taken as the bound it would read another section.
		if bytes.Compare(at, start) < 0 || bytes.Compare(at, end) >= 0 {
			return nil, fmt.Errorf("exec: cursor position lies outside %s", n.Label())
		}
		if reverse {
			end = at
		} else {
			start = successor(e.sc, nil, at)
		}
	}
	limit := n.FetchLimit()
	set, err := e.issue(kvstore.RequestSet{Kind: kvstore.Range, Range: kvstore.RangeRequest{Start: start, End: end, Limit: limit, Reverse: reverse}})
	if err != nil {
		return nil, err
	}
	kvs := set.Items
	if paging {
		// A short fetch was the last. Otherwise the next page resumes after
		// the last entry fetched — unless runStop cuts rows and rewinds that.
		if e.cur = (&cursor{drained: limit == 0 || len(kvs) < limit}); !e.cur.drained {
			e.cur.pos = kvs[len(kvs)-1].Key
		}
	}

	var rows []value.Row
	switch {
	case n.Index.Primary:
		rows = take(&e.sc.rows, len(kvs))
		slab := e.rows(len(kvs))
		var arena strings.Builder
		size := 0
		for _, kv := range kvs {
			size += value.StringBytes(kv.Value, n.Skip)
		}
		arena.Grow(size)
		for i, kv := range kvs {
			rows[i] = slab.row()
			if err := placeRecord(rows[i], n.TableOffset, len(n.Table.Columns), n.Skip, kv.Value, &arena); err != nil {
				return nil, err
			}
		}
	case !n.NeedDeref:
		// Covering index: every column is embedded in the entry key.
		rows = take(&e.sc.rows, len(kvs))
		slab := e.rows(len(kvs))
		for i, kv := range kvs {
			rows[i] = slab.row()
			if err := index.RowFromCoveringEntry(n.Index, kv.Key, rows[i], n.TableOffset); err != nil {
				return nil, err
			}
		}
	default:
		rows, err = e.derefEntries(n.Index, n.Table, n.TableOffset, n.Skip, kvs)
		if err != nil {
			return nil, err
		}
	}
	return e.filterResidual(rows, n.Residual)
}

// entryKeyOf rebuilds the key under which row's columns of table were
// read through ix: the position of a page that ends at that row.
func entryKeyOf(ix *schema.Index, table *schema.Table, offset int, row value.Row) []byte {
	rec := row[offset : offset+len(table.Columns)]
	if ix.Primary {
		return index.RecordKey(table, rec)
	}
	// One entry per row: the stop cuts only what was fetched past the page
	// under a cardinality constraint, whose index has no token field.
	return index.EntryKeys(ix, table, rec)[0]
}

// rewindTo moves the cursor back to row, the last the stop kept of more
// rows than the page holds: what was consumed behind it is the next
// page's, so the pager is not drained either.
func (e *executor) rewindTo(row value.Row) {
	e.cur.drained = false
	switch n := e.plan.Pager.(type) {
	case *core.IndexScan:
		e.cur.pos = entryKeyOf(n.Index, n.Table, n.TableOffset, row)
	case *core.SortedIndexJoin:
		// A join that merges carries the stop itself; this one laid its
		// streams end to end. Those before row's keep what they consumed,
		// row's own ends at row, the rest were not reached. Row's own is the
		// one it came from: two streams may share a prefix.
		own, reached := e.cur.origin[&row[0]], false
		for i := range e.cur.streams {
			if sc := &e.cur.streams[i]; reached {
				sc.last = nil
			} else if reached = sc == own; reached {
				sc.last = suffixOf(entryKeyOf(n.Index, n.Table, n.TableOffset, row), sc.prefix)
			}
		}
	}
}

// position serializes the cursor: the scan's key, or the sorted join's
// per-stream suffixes — streams this page did not touch keep the
// position they came with.
func (c *cursor) position() []byte {
	if c.at == nil {
		return c.pos
	}
	for i := range c.streams {
		if sc := &c.streams[i]; sc.last != nil {
			c.at[sc.key] = sc.last
		}
	}
	return encodeStreamResume(c.at)
}

// recordKeys turns the n secondary index entries of one dereference round
// into the keys of the records they point at, all carved from one buffer.
// A record key is never longer than the record prefix plus its entry key,
// so the buffer is sized up front and does not regrow.
func recordKeys(sc *scratch, ix *schema.Index, table *schema.Table, n int, entryKey func(i int) []byte) ([][]byte, error) {
	size := n * len(index.RecordPrefix(table))
	for i := 0; i < n; i++ {
		size += len(entryKey(i))
	}
	buf, keys := take(&sc.keys, size)[:0], take(&sc.heads, n)
	for i := range keys {
		from := len(buf)
		var err error
		if buf, err = index.AppendRecordKey(buf, ix, table, entryKey(i)); err != nil {
			return nil, err
		}
		keys[i] = carve(buf, from)
	}
	return keys, nil
}

// derefEntries resolves secondary index entries to records, decoded but
// for the columns in skip, with one batched request set, preserving entry
// order (rows whose record vanished — dangling entries — are skipped).
func (e *executor) derefEntries(ix *schema.Index, table *schema.Table, offset int, skip uint64, kvs []kvstore.KV) ([]value.Row, error) {
	keys, err := recordKeys(e.sc, ix, table, len(kvs), func(i int) []byte { return kvs[i].Key })
	if err != nil {
		return nil, err
	}
	return e.fetchRecords(keys, table, offset, skip) // a nil record is a dangling entry awaiting GC
}

// runFKJoin extends each child row with at most one record of the
// joined table.
func (e *executor) runFKJoin(n *core.IndexFKJoin) ([]value.Row, error) {
	childRows, err := e.run(n.ChildPlan)
	if err != nil {
		return nil, err
	}
	keys, err := pkRecordKeys(e.sc, n.Table, len(childRows), []core.KeySpec{n.Keys}, childRows, e.ctx.Params)
	if err != nil {
		return nil, err
	}
	set, err := e.issue(kvstore.RequestSet{Kind: kvstore.Gets, Keys: keys})
	if err != nil {
		return nil, err
	}
	rows := childRows[:0] // compacted in place: a kept row never moves past its own slot
	var arena strings.Builder
	arena.Grow(stringBytes(set.Values, n.Skip))
	for i, rec := range set.Values {
		if rec == nil {
			continue // no matching row: inner join drops it
		}
		if err := placeRecord(childRows[i], n.TableOffset, len(n.Table.Columns), n.Skip, rec, &arena); err != nil {
			return nil, err
		}
		rows = append(rows, childRows[i])
	}
	return e.filterResidual(rows, n.Residual)
}

// stream is one child row's pre-sorted run of matching index entries.
// Its range is the request of the same index in the join's request set.
type stream struct {
	row    value.Row // the child row every entry of the stream joins to
	prefix []byte
	key    string       // paging: the stream's name in the cursor (streamKey)
	kvs    []kvstore.KV // fetched entries the merge has not handed out yet
	full   bool         // came back with PerKeyLimit entries: the store may hold more
	last   []byte       // suffix of the last entry this page consumed, kept or dropped
}

// nextHead returns the stream whose head entry comes next in the output,
// or nil when all are drained. The entry-key suffix past a stream's
// prefix is the sort key in the order-preserving codec, so comparing
// suffixes bytewise in the scan's direction orders the heads by
// MergeSort with no record decoded; ties go to the earlier stream.
// Without a merge order the streams are laid end to end.
func nextHead(streams []stream, merge, ascending bool) *stream {
	var best *stream
	for i := range streams {
		sc := &streams[i]
		if len(sc.kvs) == 0 {
			continue
		}
		if best == nil {
			if best = sc; !merge {
				break
			}
			continue
		}
		c := bytes.Compare(suffixOf(sc.kvs[0].Key, sc.prefix), suffixOf(best.kvs[0].Key, best.prefix))
		if c != 0 && (c < 0) == ascending {
			best = sc
		}
	}
	return best
}

// runSortedJoin fetches up to PerKeyLimit pre-sorted index entries per
// child row — the K ranges one request set — merges the streams on their
// entry keys and turns only the entries the query keeps (n.Stop of them;
// all, when Stop is 0) into joined rows: those alone are dereferenced,
// decoded and filtered. An
// entry that dangles or fails the residual is replaced by the next one
// of the merge, so a page is full whenever enough live matches were
// fetched. The dereference stays a constant number of request sets: the
// page and, only if one of its entries was dropped, everything else that
// was fetched — at most two, no entry read twice. As the pager it keeps
// one position per stream (a shared one would skip tied sort values in
// sibling streams, and two child rows with one join key are two streams
// over one range), and its merge ends where a stream that came
// back full runs dry: the store may hold entries of that stream that sort
// before every other stream's next, and they are the next page's.
func (e *executor) runSortedJoin(n *core.SortedIndexJoin) ([]value.Row, error) {
	childRows, err := e.run(n.ChildPlan)
	if err != nil {
		return nil, err
	}
	scans, reqs, err := openStreams(e.sc, n, childRows, e.ctx.Params)
	if err != nil {
		return nil, err
	}
	paging := e.plan.Pager == core.Physical(n)
	var at map[string][]byte            // paging: the suffix each stream resumes after,
	var origin map[*value.Value]*stream // and the stream each joined row came from, by its first cell
	if paging {
		if at, err = decodeStreamResume(e.ctx.Resume); err != nil {
			return nil, err
		}
		resumeStreams(e.sc, scans, reqs, at)
		origin = make(map[*value.Value]*stream)
	}

	set, err := e.issue(kvstore.RequestSet{Kind: kvstore.PerKeyRanges, Ranges: reqs})
	if err != nil {
		return nil, err
	}
	kvs, fetched := set.PerRange, 0
	for i := range scans {
		sc := &scans[i]
		sc.kvs, sc.full = kvs[i], len(kvs[i]) == n.PerKeyLimit
		fetched += len(sc.kvs)
	}
	want := fetched
	if n.Stop > 0 && n.Stop < want {
		want = n.Stop
	}

	// A round takes entries off the merge and resolves them with one
	// batched request set across streams: the first want of them, then —
	// if that left the page short — all the rest. With Stop == 0 the first
	// round is everything fetched. The batch has room for everything
	// fetched, so the second round never regrows it.
	joined := take(&e.sc.rows, want)[:0]
	batch := take(&e.sc.cands, fetched)[:0]
	consumed, blocked := 0, false
	for quota, live := want, scans; len(joined) < want; quota = fetched {
		batch = batch[:0]
		for len(batch) < quota && !blocked {
			for len(live) > 0 && len(live[0].kvs) == 0 {
				live = live[1:]
			}
			sc := nextHead(live, len(n.MergeSort) > 0, n.Ascending)
			if sc == nil {
				break
			}
			batch = append(batch, candidate{sc, sc.kvs[0].Key, sc.kvs[0].Value})
			sc.kvs = sc.kvs[1:]
			blocked = paging && sc.full && len(sc.kvs) == 0
		}
		if len(batch) == 0 {
			break // fewer live matches than the page holds
		}
		if !n.Index.Primary {
			keys, err := recordKeys(e.sc, n.Index, n.Table, len(batch), func(i int) []byte { return batch[i].key })
			if err != nil {
				return nil, err
			}
			recs, err := e.issue(kvstore.RequestSet{Kind: kvstore.Gets, Keys: keys})
			if err != nil {
				return nil, err
			}
			for i := range batch {
				batch[i].rec = recs.Values[i]
			}
		}
		// The round's arena holds its candidates' strings; the last round
		// may stop before its last candidate, whose bytes then go unused.
		var arena strings.Builder
		size := 0
		for _, c := range batch {
			size += value.StringBytes(c.rec, n.Skip)
		}
		arena.Grow(size)
		slab := e.rows(len(batch))
		for _, c := range batch {
			if len(joined) == want {
				break
			}
			consumed++
			c.sc.last = suffixOf(c.key, c.sc.prefix)
			if c.rec == nil {
				continue // dangling entry awaiting GC
			}
			row := slab.row()
			copy(row, c.sc.row)
			if err := placeRecord(row, n.TableOffset, len(n.Table.Columns), n.Skip, c.rec, &arena); err != nil {
				return nil, err
			}
			keep, err := e.evalPreds(row, n.Residual)
			if err != nil {
				return nil, err
			}
			if !keep {
				continue
			}
			joined = append(joined, row)
			if origin != nil {
				origin[&row[0]] = c.sc
			}
		}
	}
	if paging {
		// Drained: every entry fetched was consumed and no stream came back
		// full — one that did has blocked the merge by now.
		e.cur = &cursor{at: at, streams: scans, origin: origin, drained: consumed == fetched && !blocked}
	}
	return joined, nil
}

// candidate is an entry the sorted join took off its merge.
type candidate struct {
	sc       *stream
	key, rec []byte // the entry's key and the record it resolves to (nil: dangling)
}

// openStreams opens the stream of each child row and, beside it, the
// stream's request: up to PerKeyLimit entries of the range of its join
// key, in the join's direction. The prefix and the prefix's end of every
// stream are carved from one buffer.
func openStreams(sc *scratch, n *core.SortedIndexJoin, childRows []value.Row, params []value.Value) ([]stream, []kvstore.RangeRequest, error) {
	var scratch [8]value.Value
	ns, desc := keySpace(n.Index, n.Table)
	size := 0
	for _, row := range childRows {
		jk, err := n.JoinKey.AppendEval(scratch[:0], params, row)
		if err != nil {
			return nil, nil, err
		}
		size += 2 * keySize(ns, jk) // the prefix and its end
	}
	buf, scans, reqs := take(&sc.keys, size)[:0], take(&sc.streams, len(childRows)), take(&sc.reqs, len(childRows))
	for i, row := range childRows {
		jk, err := n.JoinKey.AppendEval(scratch[:0], params, row)
		if err != nil {
			return nil, nil, err
		}
		from := len(buf)
		buf = appendKey(buf, ns, jk, desc)
		prefix := carve(buf, from)
		buf = codec.AppendPrefixEnd(buf, prefix)
		scans[i] = stream{row: row, prefix: prefix}
		reqs[i] = kvstore.RangeRequest{Start: prefix, End: carve(buf, from+len(prefix)), Limit: n.PerKeyLimit, Reverse: !n.Ascending}
	}
	return scans, reqs, nil
}

// resumeStreams names each stream's position in the cursor (streamKey)
// and moves the bound of its request to just past the last entry an
// earlier page consumed of it; prefix + suffix cannot leave the stream's
// range. The bound is carved from the scratch.
func resumeStreams(sc *scratch, scans []stream, reqs []kvstore.RangeRequest, at map[string][]byte) {
	seen := make(map[string]int) // streams so far with each prefix
	for i := range scans {
		s := &scans[i]
		s.key = streamKey(s.prefix, seen[string(s.prefix)])
		seen[string(s.prefix)]++
		suffix, ok := at[s.key]
		if !ok {
			continue
		}
		next := successor(sc, s.prefix, suffix) // the position is next but its last byte
		if reqs[i].Reverse {
			reqs[i].End = next[: len(next)-1 : len(next)-1]
		} else {
			reqs[i].Start = next
		}
	}
}

// streamKey names a stream's position in the cursor: its prefix, followed,
// for every stream after the first with that prefix (two child rows with
// one join key), by its occurrence among them. Every stream's prefix holds
// the same number of whole components, so no name is another stream's
// prefix with bytes appended.
func streamKey(prefix []byte, occurrence int) string {
	if occurrence == 0 {
		return string(prefix)
	}
	return string(binary.AppendUvarint(append([]byte{}, prefix...), uint64(occurrence)))
}

// encodeStreamResume serializes per-stream cursor positions.
func encodeStreamResume(m map[string][]byte) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf := binary.AppendUvarint(nil, uint64(len(m)))
	for _, k := range keys {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendUvarint(buf, uint64(len(m[k])))
		buf = append(buf, m[k]...)
	}
	return buf
}

// errCorruptPosition refuses a sorted join's position that does not parse.
var errCorruptPosition = errors.New("exec: corrupt cursor position")

// decodeStreamResume parses encodeStreamResume output; no bytes at all
// are a fresh cursor's empty map.
func decodeStreamResume(b []byte) (map[string][]byte, error) {
	m := make(map[string][]byte)
	if len(b) == 0 {
		return m, nil
	}
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, errCorruptPosition
	}
	b = b[sz:]
	for i := uint64(0); i < n; i++ {
		kl, sz := binary.Uvarint(b)
		if sz <= 0 || uint64(len(b)-sz) < kl {
			return nil, errCorruptPosition
		}
		k := string(b[sz : sz+int(kl)])
		b = b[sz+int(kl):]
		vl, sz := binary.Uvarint(b)
		if sz <= 0 || uint64(len(b)-sz) < vl {
			return nil, errCorruptPosition
		}
		m[k] = append([]byte{}, b[sz:sz+int(vl)]...)
		b = b[sz+int(vl):]
	}
	return m, nil
}

// suffixOf slices the per-stream suffix out of an entry key. Stored keys
// are immutable once written, so aliasing the key's backing array is
// safe (the resume encoder copies the bytes it serializes).
func suffixOf(key []byte, prefix []byte) []byte {
	return key[len(prefix):]
}
