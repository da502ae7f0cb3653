package exec

import (
	"bytes"
	"encoding/binary"
	"sort"

	"piql/internal/codec"
	"piql/internal/core"
	"piql/internal/index"
	"piql/internal/kvstore"
	"piql/internal/schema"
	"piql/internal/value"
)

// runPKLookup fetches at most one record per key.
func (e *executor) runPKLookup(n *core.PKLookup) ([]value.Row, error) {
	e.nextRemoteOrdinal() // PKLookup has no resumable position
	keys := make([][]byte, 0, len(n.Keys))
	for _, spec := range n.Keys {
		pk, err := spec.Eval(e.ctx.Params, nil)
		if err != nil {
			return nil, err
		}
		keys = append(keys, index.RecordKeyFromPK(n.Table, pk))
	}
	rows, err := e.fetchRecords(keys, n.TableOffset)
	if err != nil {
		return nil, err
	}
	return e.filterResidual(rows, n.Residual)
}

// fetchRecords resolves keys in one batch and decodes each record found
// into a fresh combined row at the table's offset, skipping the nil
// entries of keys that had no record.
func (e *executor) fetchRecords(keys [][]byte, offset int) ([]value.Row, error) {
	recs, err := e.getBatch(keys)
	if err != nil {
		return nil, err
	}
	rows := make([]value.Row, 0, len(recs))
	slab := e.rows(len(recs))
	for _, rec := range recs {
		if rec == nil {
			continue
		}
		row := slab.row()
		if err := placeRecord(row, offset, rec); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// scanBounds computes the byte range of an index scan from its equality
// prefix and optional inequality bounds, honoring the direction of the
// range component's encoding.
func scanBounds(n *core.IndexScan, params []value.Value) (start, end []byte, err error) {
	eq, err := core.KeySpec(n.Eq).Eval(params, nil)
	if err != nil {
		return nil, nil, err
	}
	index.NormalizeTokens(n.Index, eq)
	var prefix []byte
	var compDesc bool
	if n.Index.Primary {
		prefix = index.RecordPrefix(n.Table)
		for _, v := range eq {
			prefix = codec.AppendValue(prefix, v, false)
		}
		compDesc = false
	} else {
		prefix = index.ScanPrefix(n.Index, eq)
		if n.Lower != nil || n.Upper != nil {
			compDesc = index.RangeComponentDesc(n.Index, len(eq))
		}
	}
	start, end = prefix, codec.PrefixEnd(prefix)

	bound := func(b *core.RangeBound, desc bool) ([]byte, error) {
		v, err := b.Expr.Eval(params, nil)
		if err != nil {
			return nil, err
		}
		return codec.AppendValue(append([]byte{}, prefix...), v, desc), nil
	}
	// In value space Lower/Upper are fixed; in byte space a descending
	// component swaps their roles.
	lo, hi := n.Lower, n.Upper
	if compDesc {
		lo, hi = hi, lo
	}
	if lo != nil {
		k, err := bound(lo, compDesc)
		if err != nil {
			return nil, nil, err
		}
		if lo.Inclusive {
			start = k
		} else {
			start = codec.PrefixEnd(k)
		}
	}
	if hi != nil {
		k, err := bound(hi, compDesc)
		if err != nil {
			return nil, nil, err
		}
		if hi.Inclusive {
			end = codec.PrefixEnd(k)
		} else {
			end = k
		}
	}
	return start, end, nil
}

// fetchRange reads up to limit entries of [start, end), honoring the
// strategy: Lazy fetches one entry per request; Simple fetches the whole
// batch in one request, walking partitions sequentially; Parallel
// scatter-gathers the per-partition scans concurrently. limit <= 0 means
// "everything" (cost-based unbounded plans only).
func (e *executor) fetchRange(start, end []byte, limit int, reverse bool) ([]kvstore.KV, error) {
	if e.ctx.Strategy != Lazy || limit <= 0 {
		req := kvstore.RangeRequest{Start: start, End: end, Limit: limit, Reverse: reverse}
		kvs, err := e.ctx.Client.Scan(req, kvstore.ReadOpts{Parallel: e.ctx.Strategy == Parallel})
		return kvs, degraded(err)
	}
	// Tuple-at-a-time walk: each fetched key becomes the next request's
	// start bound. The successor key lives in a scratch buffer reused
	// across tuples — and, when the caller threads a Scratch through
	// (Cursor pagination), across pages — so the walk's only per-tuple
	// cost is the request itself, not an allocation. Rebinding the
	// buffer between iterations is safe: Scan reads its bounds only for
	// the duration of the call.
	var buf []byte
	if e.ctx.Scratch != nil {
		buf = e.ctx.Scratch.key
	}
	var out []kvstore.KV
	for len(out) < limit {
		kvs, err := e.ctx.Client.Scan(kvstore.RangeRequest{Start: start, End: end, Limit: 1, Reverse: reverse}, kvstore.ReadOpts{})
		if err != nil {
			return nil, degraded(err)
		}
		if len(kvs) == 0 {
			break
		}
		out = append(out, kvs[0])
		if reverse {
			end = kvs[0].Key
		} else {
			buf = append(buf[:0], kvs[0].Key...)
			buf = append(buf, 0x00)
			start = buf
		}
	}
	if e.ctx.Scratch != nil {
		e.ctx.Scratch.key = buf
	}
	return out, nil
}

// successor returns the smallest key greater than k.
func successor(k []byte) []byte {
	return append(append([]byte{}, k...), 0x00)
}

// runIndexScan reads one contiguous index section.
func (e *executor) runIndexScan(n *core.IndexScan) ([]value.Row, error) {
	ord, resume := e.nextRemoteOrdinal()
	start, end, err := scanBounds(n, e.ctx.Params)
	if err != nil {
		return nil, err
	}
	reverse := !n.Ascending
	if resume != nil {
		if reverse {
			end = resume
		} else {
			start = successor(resume)
		}
	}
	limit := 0
	if !n.Unbounded {
		limit = n.LimitHint
		if limit == 0 {
			limit = n.DataStopCard
		}
	}
	kvs, err := e.fetchRange(start, end, limit, reverse)
	if err != nil {
		return nil, err
	}
	// The next page resumes after the last entry fetched; where the page
	// keeps fewer rows than that (plan.PageScan), runStop corrects it.
	if len(kvs) > 0 {
		e.storeResume(ord, kvs[len(kvs)-1].Key)
	} else {
		e.storeResume(ord, resume)
	}

	var rows []value.Row
	switch {
	case n.Index.Primary:
		rows = make([]value.Row, len(kvs))
		slab := e.rows(len(kvs))
		for i, kv := range kvs {
			rows[i] = slab.row()
			if err := placeRecord(rows[i], n.TableOffset, kv.Value); err != nil {
				return nil, err
			}
		}
	case !n.NeedDeref:
		// Covering index: every column is embedded in the entry key.
		rows = make([]value.Row, len(kvs))
		slab := e.rows(len(kvs))
		for i, kv := range kvs {
			rows[i] = slab.row()
			if err := index.RowFromCoveringEntry(n.Index, kv.Key, rows[i], n.TableOffset); err != nil {
				return nil, err
			}
		}
	default:
		rows, err = e.derefEntries(n.Index, n.Table, n.TableOffset, kvs)
		if err != nil {
			return nil, err
		}
	}
	return e.filterResidual(rows, n.Residual)
}

// scanKeyOf rebuilds the key under which scan n read row: the cursor
// position of a page that ends at that row.
func scanKeyOf(n *core.IndexScan, row value.Row) []byte {
	rec := row[n.TableOffset : n.TableOffset+len(n.Table.Columns)]
	if n.Index.Primary {
		return index.RecordKey(n.Table, rec)
	}
	// One entry per row: a scan that fetches past its page is bounded by
	// a cardinality constraint, whose index has no token field.
	return index.EntryKeys(n.Index, n.Table, rec)[0]
}

// recordKeys turns the n secondary index entries of one dereference round
// into the keys of the records they point at, all carved from one buffer.
// A record key is never longer than the record prefix plus its entry key,
// so the buffer is sized up front and does not regrow.
func recordKeys(ix *schema.Index, table *schema.Table, n int, entryKey func(i int) []byte) ([][]byte, error) {
	size := n * len(index.RecordPrefix(table))
	for i := 0; i < n; i++ {
		size += len(entryKey(i))
	}
	buf, keys := make([]byte, 0, size), make([][]byte, n)
	for i := range keys {
		from := len(buf)
		var err error
		if buf, err = index.AppendRecordKey(buf, ix, table, entryKey(i)); err != nil {
			return nil, err
		}
		keys[i] = buf[from:len(buf):len(buf)]
	}
	return keys, nil
}

// derefEntries resolves secondary index entries to full records with one
// batched request set, preserving entry order (rows whose record
// vanished — dangling entries — are skipped).
func (e *executor) derefEntries(ix *schema.Index, table *schema.Table, offset int, kvs []kvstore.KV) ([]value.Row, error) {
	keys, err := recordKeys(ix, table, len(kvs), func(i int) []byte { return kvs[i].Key })
	if err != nil {
		return nil, err
	}
	return e.fetchRecords(keys, offset) // a nil record is a dangling entry awaiting GC
}

// runFKJoin extends each child row with at most one record of the
// joined table.
func (e *executor) runFKJoin(n *core.IndexFKJoin) ([]value.Row, error) {
	childRows, err := e.run(n.ChildPlan)
	if err != nil {
		return nil, err
	}
	e.nextRemoteOrdinal() // order preserved; no resumable position of its own
	keys := make([][]byte, len(childRows))
	for i, row := range childRows {
		pk, err := n.Keys.Eval(e.ctx.Params, row)
		if err != nil {
			return nil, err
		}
		keys[i] = index.RecordKeyFromPK(n.Table, pk)
	}
	recs, err := e.getBatch(keys)
	if err != nil {
		return nil, err
	}
	rows := childRows[:0] // compacted in place: a kept row never moves past its own slot
	for i, rec := range recs {
		if rec == nil {
			continue // no matching row: inner join drops it
		}
		if err := placeRecord(childRows[i], n.TableOffset, rec); err != nil {
			return nil, err
		}
		rows = append(rows, childRows[i])
	}
	return e.filterResidual(rows, n.Residual)
}

// stream is one child row's pre-sorted run of matching index entries.
type stream struct {
	row        value.Row // the child row every entry of the stream joins to
	prefix     []byte
	start, end []byte
	kvs        []kvstore.KV // fetched entries the merge has not handed out yet
	err        error        // this stream's fetch: each Parallel branch owns its slot
	last       []byte       // suffix of the last entry this page consumed
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
// child row, merges the streams on their entry keys and turns only the
// entries the query keeps (n.Stop of them; all, when Stop is 0) into
// joined rows: those alone are dereferenced, decoded and filtered. An
// entry that dangles or fails the residual is replaced by the next one
// of the merge, so a page is full whenever enough live matches were
// fetched. The dereference stays a constant number of request sets: the
// page and, only if one of its entries was dropped, everything else that
// was fetched — at most two, no entry read twice. For paginated queries
// the cursor keeps one resume position per join-key stream — a shared
// position would skip tied sort values in sibling streams.
func (e *executor) runSortedJoin(n *core.SortedIndexJoin) ([]value.Row, error) {
	childRows, err := e.run(n.ChildPlan)
	if err != nil {
		return nil, err
	}
	ord, resumeBlob := e.nextRemoteOrdinal()
	resume := decodeStreamResume(resumeBlob)

	scans := make([]stream, len(childRows))
	for i, row := range childRows {
		jk, err := n.JoinKey.Eval(e.ctx.Params, row)
		if err != nil {
			return nil, err
		}
		var prefix []byte
		if n.Index.Primary {
			prefix = index.RecordPrefix(n.Table)
			for _, v := range jk {
				prefix = codec.AppendValue(prefix, v, false)
			}
		} else {
			prefix = index.ScanPrefix(n.Index, jk)
		}
		start, end := prefix, codec.PrefixEnd(prefix)
		// Resume this stream just past the last element it contributed
		// to a previous page.
		if suffix, ok := resume[string(prefix)]; ok {
			if n.Ascending {
				start = successor(append(append([]byte{}, prefix...), suffix...))
			} else {
				end = append(append([]byte{}, prefix...), suffix...)
			}
		}
		scans[i] = stream{row: row, prefix: prefix, start: start, end: end}
	}

	fetch := func(sub *kvstore.Client, sc *stream, scatter bool) {
		req := kvstore.RangeRequest{Start: sc.start, End: sc.end, Limit: n.PerKeyLimit, Reverse: !n.Ascending}
		kvs, err := sub.Scan(req, kvstore.ReadOpts{Parallel: scatter})
		sc.kvs, sc.err = kvs, degraded(err)
	}
	switch e.ctx.Strategy {
	case Parallel:
		// All K per-key scans concurrently, each itself scatter-gathering
		// across the partitions its range spans.
		fns := make([]func(*kvstore.Client), len(scans))
		for i := range scans {
			fns[i] = func(sub *kvstore.Client) { fetch(sub, &scans[i], true) }
		}
		e.ctx.Client.Parallel(fns...)
	default:
		// Lazy and Simple both issue the per-key requests sequentially;
		// Lazy additionally fetches tuple by tuple.
		for i := range scans {
			if sc := &scans[i]; e.ctx.Strategy == Lazy {
				sc.kvs, sc.err = e.fetchRange(sc.start, sc.end, n.PerKeyLimit, !n.Ascending)
			} else {
				fetch(e.ctx.Client, sc, false)
			}
		}
	}
	fetched := 0
	for _, sc := range scans {
		if sc.err != nil {
			return nil, sc.err
		}
		fetched += len(sc.kvs)
	}
	want := fetched
	if n.Stop > 0 && n.Stop < want {
		want = n.Stop
	}

	// A round takes entries off the merge and resolves them with one
	// batched request set across streams: the first want of them, then —
	// if that left the page short — all the rest. With Stop == 0 the first
	// round is everything fetched.
	type candidate struct {
		sc *stream
		kv kvstore.KV
	}
	joined := make([]value.Row, 0, want)
	batch := make([]candidate, 0, want)
	var recs [][]byte
	for take, live := want, scans; len(joined) < want; take = fetched {
		batch = batch[:0]
		for len(batch) < take {
			for len(live) > 0 && len(live[0].kvs) == 0 {
				live = live[1:]
			}
			sc := nextHead(live, len(n.MergeSort) > 0, n.Ascending)
			if sc == nil {
				break
			}
			batch = append(batch, candidate{sc, sc.kvs[0]})
			sc.kvs = sc.kvs[1:]
		}
		if len(batch) == 0 {
			break // fewer live matches than the page holds
		}
		if !n.Index.Primary {
			keys, err := recordKeys(n.Index, n.Table, len(batch), func(i int) []byte { return batch[i].kv.Key })
			if err != nil {
				return nil, err
			}
			if recs, err = e.getBatch(keys); err != nil {
				return nil, err
			}
		}
		slab := e.rows(len(batch))
		for i, c := range batch {
			if len(joined) == want {
				break
			}
			rec := c.kv.Value
			if !n.Index.Primary {
				if rec = recs[i]; rec == nil {
					continue // dangling entry awaiting GC
				}
			}
			row := slab.row()
			copy(row, c.sc.row)
			if err := placeRecord(row, n.TableOffset, rec); err != nil {
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
			// Cursor state: per stream, the suffix of the last row this
			// page consumed — the rows the query's stop will keep.
			if len(joined) <= e.plan.PageSize {
				c.sc.last = suffixOf(c.kv.Key, c.sc.prefix)
			}
		}
	}
	if e.plan.PageSize > 0 {
		// Untouched streams keep their previous position.
		for i := range scans {
			if sc := &scans[i]; sc.last != nil {
				resume[string(sc.prefix)] = sc.last
			}
		}
		e.storeResume(ord, encodeStreamResume(resume))
	}
	return joined, nil
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

// decodeStreamResume parses encodeStreamResume output; nil or corrupt
// input yields an empty map (a fresh cursor).
func decodeStreamResume(b []byte) map[string][]byte {
	m := make(map[string][]byte)
	if len(b) == 0 {
		return m
	}
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return m
	}
	b = b[sz:]
	for i := uint64(0); i < n; i++ {
		kl, sz := binary.Uvarint(b)
		if sz <= 0 || uint64(len(b)-sz) < kl {
			return map[string][]byte{}
		}
		k := string(b[sz : sz+int(kl)])
		b = b[sz+int(kl):]
		vl, sz := binary.Uvarint(b)
		if sz <= 0 || uint64(len(b)-sz) < vl {
			return map[string][]byte{}
		}
		v := append([]byte{}, b[sz:sz+int(vl)]...)
		b = b[sz+int(vl):]
		m[k] = v
	}
	return m
}

// suffixOf slices the per-stream suffix out of an entry key. Stored keys
// are immutable once written, so aliasing the key's backing array is
// safe (the resume encoder copies the bytes it serializes).
func suffixOf(key []byte, prefix []byte) []byte {
	return key[len(prefix):]
}
