package index

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"piql/internal/codec"
	"piql/internal/kvstore"
	"piql/internal/schema"
	"piql/internal/value"
)

// CatalogSource yields the current catalog snapshot. A *schema.Catalog
// is its own (static) source; engines whose catalogs evolve via
// copy-on-write pass a live source so writes immediately maintain
// indexes created after the Maintainer was constructed.
type CatalogSource interface {
	Catalog() *schema.Catalog
}

// Maintainer runs the write path for one table against the key/value
// store, keeping every registered secondary index consistent and
// enforcing the schema's uniqueness and cardinality constraints.
//
// A Maintainer holds no per-row state: it is safe for concurrent use as
// long as each call gets its own kvstore.Client and the CatalogSource
// is safe (an atomically published snapshot is). Its only mutable state
// is the build-tombstone registry — the mutex-guarded rendezvous
// between writers deleting entries of a still-building index and that
// index's backfill (see BeginBuildTombstones).
type Maintainer struct {
	src CatalogSource

	// activeBuilds counts open registries so the steady-state delete
	// path (no backfill in flight) pays one atomic load, not a lock.
	activeBuilds atomic.Int32

	// buildTombs records, per in-flight backfill (by index signature),
	// every entry key a writer deleted while the index was building.
	// The backfill's scan snapshot may re-put such an entry after the
	// delete — but backfill entries are stamped at the scan-begin
	// version while the writer's delete tombstones carry later ones, so
	// the store's put-if-newer keeps the re-put from ever resurrecting
	// the entry on any replica. The registry is therefore no longer a
	// repair worklist but the suspect set for the post-build invariant
	// check (VerifyBuildSuspects): each recorded key must end up absent
	// or owned by a write newer than the scan.
	tombMu     sync.Mutex
	buildTombs map[string]map[string]struct{}
}

// NewMaintainer returns a write-path helper over the catalog source.
func NewMaintainer(src CatalogSource) *Maintainer {
	return &Maintainer{src: src}
}

// BeginBuildTombstones opens the tombstone registry for one index
// backfill. From this call until TakeBuildTombstones, every writer that
// deletes entries of the index records their keys first (writers find
// the registry by the index's signature). The builder must open the
// registry before draining writers, so any write that could overlap the
// scan already sees it.
func (m *Maintainer) BeginBuildTombstones(ix *schema.Index) {
	m.tombMu.Lock()
	if m.buildTombs == nil {
		m.buildTombs = make(map[string]map[string]struct{})
	}
	if _, open := m.buildTombs[ix.Signature()]; !open {
		m.buildTombs[ix.Signature()] = make(map[string]struct{})
		m.activeBuilds.Add(1)
	}
	m.tombMu.Unlock()
}

// TakeBuildTombstones closes the registry and returns the entry keys
// deleted while the backfill ran — the exact suspect set for the
// post-build ghost assertion (VerifyBuildSuspects). Returns nil if the
// registry was never opened.
func (m *Maintainer) TakeBuildTombstones(ix *schema.Index) [][]byte {
	m.tombMu.Lock()
	defer m.tombMu.Unlock()
	set, open := m.buildTombs[ix.Signature()]
	if open {
		delete(m.buildTombs, ix.Signature())
		m.activeBuilds.Add(-1)
	}
	if len(set) == 0 {
		return nil
	}
	keys := make([][]byte, 0, len(set))
	for k := range set {
		keys = append(keys, []byte(k))
	}
	return keys
}

// recordBuildTombstones notes entry keys a writer is about to delete,
// when ix has an open backfill registry. Must be called before the
// deletes are issued: a key recorded after the builder collected the
// registry is guaranteed to be deleted after every backfill put of that
// key, which cannot leave a dangle.
func (m *Maintainer) recordBuildTombstones(ix *schema.Index, keys [][]byte) {
	if len(keys) == 0 || m.activeBuilds.Load() == 0 {
		return
	}
	m.tombMu.Lock()
	if set, ok := m.buildTombs[ix.Signature()]; ok {
		for _, k := range keys {
			set[string(k)] = struct{}{}
		}
	}
	m.tombMu.Unlock()
}

// ErrDuplicateKey is returned when an insert collides with an existing
// primary key.
type ErrDuplicateKey struct {
	Table string
	PK    value.Row
}

func (e *ErrDuplicateKey) Error() string {
	return fmt.Sprintf("duplicate primary key %s in table %s", e.PK, e.Table)
}

// ErrCardinalityExceeded is returned when an insert would violate a
// CARDINALITY LIMIT; per Section 7.2 the record is inserted first,
// checked with a count-range request, and removed again on violation.
type ErrCardinalityExceeded struct {
	Table   string
	Columns []string
	Limit   int
}

func (e *ErrCardinalityExceeded) Error() string {
	return fmt.Sprintf("cardinality limit %d on %s(%s) exceeded",
		e.Limit, e.Table, strings.Join(e.Columns, ", "))
}

// secondaryIndexes returns the table's non-primary indexes from one
// catalog snapshot. Each write operation loads the snapshot once and
// threads the index list through, so a concurrent copy-on-write catalog
// publish cannot make one operation see two different index sets (e.g.
// writing entries for one set and rolling back a different one).
//
// Building indexes are included: the write path maintains an index from
// the moment it is registered, which is what lets the backfill flip it
// ready without a write gap (see engine.ensureBuilt).
func (m *Maintainer) secondaryIndexes(t *schema.Table) []*schema.Index {
	_, ixs := m.snapshot(t)
	return ixs
}

// snapshot loads the catalog once and returns it with the table's
// secondary indexes — the per-operation view.
func (m *Maintainer) snapshot(t *schema.Table) (*schema.Catalog, []*schema.Index) {
	cat := m.src.Catalog()
	var ixs []*schema.Index
	for _, ix := range cat.Indexes(t.Name) {
		if !ix.Primary {
			ixs = append(ixs, ix)
		}
	}
	return cat, ixs
}

// Insert writes a full row following the paper's protocol: secondary
// index entries first, then the record via test-and-set (uniqueness),
// then the cardinality count-check (deleting the row again on
// violation).
func (m *Maintainer) Insert(cl *kvstore.Client, t *schema.Table, row value.Row) error {
	if len(row) != len(t.Columns) {
		return fmt.Errorf("index: row has %d values, table %s has %d columns", len(row), t.Name, len(t.Columns))
	}
	cat, ixs := m.snapshot(t)
	rec := value.EncodeRow(row)
	// Every store error below is transient and returned wrapped (so
	// engine.Retryable holds): whatever this insert already wrote stays
	// behind as benign dangling entries that index GC collects — the same
	// class a crash at that point leaves — and the caller retries.
	fail := func(err error) error { return fmt.Errorf("index: insert %s: %w", t.Name, err) }
	// (1) Insert all secondary index entries (in parallel: ordering only
	// matters between the entries and the record, not among entries).
	if err := putEntries(cl, entryKeysFor(ixs, t, row)); err != nil {
		return fail(err)
	}
	// (2) Insert the record if absent (uniqueness via test-and-set).
	// TestAndSet is linearizable across rebalances: the store absorbs
	// epoch-fencing retries internally (a fenced decision was never made,
	// so re-running the test is safe), which means a false, error-free
	// return here is always a genuine duplicate — decided by the one
	// authoritative primary — never a routing artifact. Duplicate-key
	// detection and the rollback below rely on that exactness. An error
	// (retry budget exhausted against a dead primary) means no decision
	// was made: surface it without the duplicate rollback.
	rkey := RecordKey(t, row)
	swapped, err := cl.TestAndSet(rkey, nil, rec)
	if err != nil {
		return fail(err)
	}
	if !swapped {
		// Roll back the entries we just wrote. While the colliding row
		// still exists its entries may be shared with ours, so only
		// delete ones the stored row does not also produce. If it was
		// deleted between the failed test-and-set and this read, nothing
		// is shared anymore — delete everything this insert wrote, or the
		// entries would dangle forever. A read that failed is neither:
		// which entries are shared is unknown, so none is deleted —
		// taking "unreachable" for "deleted" would strip a surviving row
		// of the entries it shares with this one.
		existing, _, ok, err := cl.Read(rkey, kvstore.ReadOpts{})
		if err != nil {
			return fail(err)
		}
		if ok {
			if old, derr := value.DecodeRow(existing); derr == nil {
				err = m.deleteStaleEntries(cl, ixs, t, row, old)
			}
		} else if err = m.deleteRowEntries(cl, ixs, t, row); err == nil {
			// A concurrent insert of the same key may have committed while
			// we were deleting — and its entry keys can coincide with the
			// ones just removed. Restore whatever the winner's row needs.
			// (A winner whose record lands after this read but whose entry
			// puts preceded our deletions remains exposed for that sliver;
			// the alternative — never rolling back — leaked the entries
			// permanently.)
			var rec2 []byte
			if rec2, _, ok, err = cl.Read(rkey, kvstore.ReadOpts{}); ok {
				if winner, derr := value.DecodeRow(rec2); derr == nil {
					err = putEntries(cl, entryKeysFor(ixs, t, winner))
				}
			}
		}
		if err != nil {
			return fail(err)
		}
		pk := make(value.Row, len(t.PrimaryKey))
		for i, col := range t.PrimaryKey {
			pk[i] = row[t.ColumnIndex(col)]
		}
		return &ErrDuplicateKey{Table: t.Name, PK: pk}
	}
	// (3) Check cardinality constraints with count-range requests.
	for _, card := range t.Cardinalities {
		n, err := m.countMatching(cl, cat, ixs, t, card, row)
		if err == nil && n <= card.Limit {
			continue
		}
		// Over the limit — or the count could not be completed, which
		// must not admit either: a count that skipped an unreachable
		// partition or a record it could not decode is an undercount, and
		// the row would stay past the limit every static bound rests on.
		// Undo the insert (record first so readers stop seeing it, then
		// entries).
		if err := errors.Join(err, cl.Delete(rkey), m.deleteRowEntries(cl, ixs, t, row)); err != nil {
			return fail(err)
		}
		return &ErrCardinalityExceeded{Table: t.Name, Columns: card.Columns, Limit: card.Limit}
	}
	return nil
}

// readPrefix reads, as a request set of kind, every key under prefix.
func readPrefix(cl *kvstore.Client, kind kvstore.RequestKind, prefix []byte, o kvstore.ReadOpts) (kvstore.RequestSet, error) {
	set := kvstore.RequestSet{Kind: kind, Range: kvstore.RangeRequest{Start: prefix, End: codec.PrefixEnd(prefix)}}
	err := cl.Issue(&set, o)
	return set, err
}

// countMatching counts rows sharing the constraint column values with
// row. It uses an index over the constraint columns when one exists
// (the compiler will have created one for any constraint it exploits);
// otherwise it falls back to counting over the record range, which is
// only valid when the constraint columns prefix the primary key.
func (m *Maintainer) countMatching(cl *kvstore.Client, cat *schema.Catalog, ixs []*schema.Index, t *schema.Table, card schema.Cardinality, row value.Row) (int, error) {
	if ix := constraintIndex(cat, ixs, card); ix != nil {
		prefix := IndexPrefix(ix)
		for i := range card.Columns {
			f := ix.Fields[i]
			prefix = codec.AppendValue(prefix, row[t.ColumnIndex(f.Column)], f.Desc)
		}
		set, err := readPrefix(cl, kvstore.Count, prefix, kvstore.ReadOpts{Parallel: true})
		return set.N, err
	}
	if m.prefixesPrimaryKey(t, card.Columns) {
		prefix := RecordPrefix(t)
		for _, col := range card.Columns {
			prefix = codec.AppendValue(prefix, row[t.ColumnIndex(col)], false)
		}
		set, err := readPrefix(cl, kvstore.Count, prefix, kvstore.ReadOpts{Parallel: true})
		return set.N, err
	}
	// No efficient path: scan-count via the record range with a filter.
	// Bounded in practice by the constraint itself once enforced.
	prefix := RecordPrefix(t)
	set, err := readPrefix(cl, kvstore.Range, prefix, kvstore.ReadOpts{})
	if err != nil {
		return 0, err
	}
	n := 0
	other := make(value.Row, len(t.Columns)) // one scratch row for the whole scan
	for _, kv := range set.Items {
		// A record that does not decode may match: skipping it would
		// undercount, as a skipped partition would.
		if _, err := value.DecodeRowInto(other, kv.Value); err != nil {
			return 0, fmt.Errorf("count for %s's cardinality limit: record %q: %w", t.Name, kv.Key, err)
		}
		match := true
		for _, col := range card.Columns {
			ci := t.ColumnIndex(col)
			if !value.Equal(other[ci], row[ci]) {
				match = false
				break
			}
		}
		if match {
			n++
		}
	}
	return n, nil
}

// constraintIndex finds a ready secondary index whose leading non-token
// fields are exactly the constraint columns, in any order: the count
// scans a prefix bound by equality on every constraint column, so the
// order the index stores them in does not matter. (The match used to be
// positional, rejecting indexes that permute the constraint columns even
// though they serve the count just as well.) A building index must not
// be used — its backfill may not have reached every pre-existing row
// yet, and an undercount would admit constraint-violating inserts; the
// callers' fallback paths count over the records, which are always
// complete.
func constraintIndex(cat *schema.Catalog, ixs []*schema.Index, card schema.Cardinality) *schema.Index {
	for _, ix := range ixs {
		if cat.IndexState(ix) != schema.StateReady {
			continue
		}
		if len(ix.Fields) < len(card.Columns) {
			continue
		}
		ok := true
		for i := range card.Columns {
			f := ix.Fields[i]
			if f.Token || !containsFold(card.Columns, f.Column) {
				ok = false
				break
			}
		}
		if ok && distinctFold(ix.Fields[:len(card.Columns)]) {
			return ix
		}
	}
	return nil
}

// containsFold reports whether cols contains s, case-insensitively.
func containsFold(cols []string, s string) bool {
	for _, c := range cols {
		if strings.EqualFold(c, s) {
			return true
		}
	}
	return false
}

// distinctFold reports whether the fields name pairwise-distinct columns
// (so "leading fields drawn from the constraint columns" implies they
// cover all of them).
func distinctFold(fields []schema.IndexField) bool {
	for i := range fields {
		for j := i + 1; j < len(fields); j++ {
			if strings.EqualFold(fields[i].Column, fields[j].Column) {
				return false
			}
		}
	}
	return true
}

func (m *Maintainer) prefixesPrimaryKey(t *schema.Table, cols []string) bool {
	if len(cols) > len(t.PrimaryKey) {
		return false
	}
	for i, col := range cols {
		if !strings.EqualFold(t.PrimaryKey[i], col) {
			return false
		}
	}
	return true
}

// Update rewrites an existing row from oldRow, as the caller just read
// it, to newRow (same primary key): new index entries first, then the
// record, then stale entry deletion — the ordering that tolerates a
// crash at any point with only dangling entries as fallout.
func (m *Maintainer) Update(cl *kvstore.Client, t *schema.Table, oldRow, newRow value.Row) error {
	ixs := m.secondaryIndexes(t)
	rkey := RecordKey(t, newRow)
	fail := func(err error) error { return fmt.Errorf("index: update %s: %w", t.Name, err) }
	// (1) New entries, in parallel.
	if err := putEntries(cl, entryKeysFor(ixs, t, newRow)); err != nil {
		return fail(err)
	}
	// (2) Record.
	if err := cl.Put(rkey, value.EncodeRow(newRow)); err != nil {
		return fail(err)
	}
	// (3) Stale entries.
	if err := m.deleteStaleEntries(cl, ixs, t, oldRow, newRow); err != nil {
		return fail(err)
	}
	return nil
}

// deleteStaleEntries removes index entries produced by oldRow but not by
// keepRow.
func (m *Maintainer) deleteStaleEntries(cl *kvstore.Client, ixs []*schema.Index, t *schema.Table, oldRow, keepRow value.Row) error {
	var stale [][]byte
	for _, ix := range ixs {
		keep := make(map[string]bool)
		for _, key := range EntryKeys(ix, t, keepRow) {
			keep[string(key)] = true
		}
		var ixStale [][]byte
		for _, key := range EntryKeys(ix, t, oldRow) {
			if !keep[string(key)] {
				ixStale = append(ixStale, key)
			}
		}
		m.recordBuildTombstones(ix, ixStale)
		stale = append(stale, ixStale...)
	}
	return deleteEntries(cl, stale)
}

// deleteRowEntries removes every entry row produces, recording build
// tombstones first for any index whose backfill is in flight.
func (m *Maintainer) deleteRowEntries(cl *kvstore.Client, ixs []*schema.Index, t *schema.Table, row value.Row) error {
	var keys [][]byte
	for _, ix := range ixs {
		eks := EntryKeys(ix, t, row)
		m.recordBuildTombstones(ix, eks)
		keys = append(keys, eks...)
	}
	return deleteEntries(cl, keys)
}

// Delete removes a row and its index entries (record first, so readers
// immediately stop seeing it; entries become dangling until removed).
func (m *Maintainer) Delete(cl *kvstore.Client, t *schema.Table, pk value.Row) error {
	ixs := m.secondaryIndexes(t)
	rkey := RecordKeyFromPK(t, pk)
	fail := func(err error) error { return fmt.Errorf("index: delete %s: %w", t.Name, err) }
	rec, _, ok, err := cl.Read(rkey, kvstore.ReadOpts{})
	if err != nil {
		return fail(err) // unreachable is not missing: nothing was deleted, say so
	}
	if !ok {
		return nil // idempotent
	}
	row, err := value.DecodeRow(rec)
	if err != nil {
		return fmt.Errorf("index: corrupt record in %s: %w", t.Name, err)
	}
	if err := cl.Delete(rkey); err != nil {
		return fail(err)
	}
	if err := m.deleteRowEntries(cl, ixs, t, row); err != nil {
		return fail(err)
	}
	return nil
}

// entryKeysFor collects every secondary index entry key a row produces.
func entryKeysFor(ixs []*schema.Index, t *schema.Table, row value.Row) [][]byte {
	var keys [][]byte
	for _, ix := range ixs {
		keys = append(keys, EntryKeys(ix, t, row)...)
	}
	return keys
}

// putEntries writes entry keys concurrently.
func putEntries(cl *kvstore.Client, keys [][]byte) error {
	return writeEntries(cl, keys, func(sub *kvstore.Client, k []byte) error { return sub.Put(k, nil) })
}

// deleteEntries removes entry keys concurrently.
func deleteEntries(cl *kvstore.Client, keys [][]byte) error {
	return writeEntries(cl, keys, (*kvstore.Client).Delete)
}

// writeEntries issues one write per key, concurrently when there are
// several; each Parallel branch reports into its own slot.
func writeEntries(cl *kvstore.Client, keys [][]byte, write func(*kvstore.Client, []byte) error) error {
	if len(keys) == 0 {
		return nil
	}
	if len(keys) == 1 {
		return write(cl, keys[0])
	}
	errs := make([]error, len(keys))
	fns := make([]func(*kvstore.Client), len(keys))
	for i, k := range keys {
		fns[i] = func(sub *kvstore.Client) { errs[i] = write(sub, k) }
	}
	cl.Parallel(fns...)
	return errors.Join(errs...)
}

// BackfillAt builds a newly created secondary index from the existing
// records of its table. It is the scan half of the online build
// protocol: the index is registered (building) before the scan starts,
// so concurrent writes maintain it, and the caller flips it ready
// afterwards (engine.ensureBuilt, which also drains writers that could
// still hold a pre-registration catalog snapshot).
//
// Every entry the backfill writes is stamped at snap, a version the
// caller drew before the scan reads anything (PutStamped). That makes
// the scan a consistent "as of" replay: any write racing the build — in
// particular a delete whose entries the stale scan would re-put —
// carries a later version and outranks the backfill on every replica,
// so the delete-racing-backfill dangle (and its replica-diverged ghost
// variant) is structurally impossible rather than swept up afterwards.
// The caller must draw snap before any write it intends to outrank the
// scan can stamp itself — the engine draws it before opening the
// build-tombstone registry and draining writers, so every write that
// could race the scan (and so every registry suspect) provably carries
// a version newer than snap. Entry puts are idempotent, so concurrent or
// duplicate backfills are harmless.
func (m *Maintainer) BackfillAt(cl *kvstore.Client, ix *schema.Index, snap kvstore.Version) error {
	if ix.Primary {
		return nil
	}
	t := m.src.Catalog().Table(ix.Table)
	if t == nil {
		return fmt.Errorf("index: backfill of index on unknown table %q", ix.Table)
	}
	// Scan each partition's primary, not a random replica: the primary
	// takes every write first, so a replica may trail it, and a
	// trailing replica can still show a row whose delete
	// predates the build — no entry tombstone exists for it (the index
	// didn't), so an entry minted from that stale read would dangle
	// with nothing to outrank it. A partition whose primary cannot be
	// read fails the build: the caller must never flip the index ready
	// over a scan that skipped rows.
	prefix := RecordPrefix(t)
	set, err := readPrefix(cl, kvstore.Range, prefix, kvstore.ReadOpts{From: kvstore.Primary})
	if err != nil {
		return fmt.Errorf("index: backfill of %s: %w", ix.Name, err)
	}
	for _, kv := range set.Items {
		row, err := value.DecodeRow(kv.Value)
		if err != nil {
			return fmt.Errorf("index: corrupt record during backfill of %s: %w", ix.Name, err)
		}
		for _, key := range EntryKeys(ix, t, row) {
			if err := cl.PutStamped(key, nil, snap); err != nil {
				return fmt.Errorf("index: backfill of %s: %w", ix.Name, err)
			}
		}
	}
	return nil
}

// GCDangling scans an index for entries whose record no longer exists
// and removes them — the garbage collection the paper mentions for the
// dangling pointers the crash-tolerant ordering can leave behind. It
// returns how many entries were collected. A read that fails stops the
// sweep with its error: an entry whose record could not be read is not
// known to dangle, and deleting it would unindex a live row.
func (m *Maintainer) GCDangling(cl *kvstore.Client, ix *schema.Index) (int, error) {
	if ix.Primary {
		return 0, nil
	}
	t := m.src.Catalog().Table(ix.Table)
	if t == nil {
		return 0, fmt.Errorf("index: gc of index on unknown table %q", ix.Table)
	}
	prefix := IndexPrefix(ix)
	fail := func(err error) error { return fmt.Errorf("index: gc of %s: %w", ix.Name, err) }
	set, err := readPrefix(cl, kvstore.Range, prefix, kvstore.ReadOpts{})
	if err != nil {
		return 0, fail(err)
	}
	removed := 0
	for _, kv := range set.Items {
		dangling, err := m.entryDangling(cl, ix, t, kv.Key)
		if err != nil {
			return removed, fail(err)
		}
		if !dangling {
			continue
		}
		if err := cl.Delete(kv.Key); err != nil {
			return removed, fail(err)
		}
		removed++
	}
	return removed, nil
}

// AuditMirror checks that index ix holds exactly the entries its
// table's records produce: no record is missing an entry, and no entry
// lacks the record that produces it. It returns how many records and
// entries it read. Only a ready index mirrors its table, and only with
// no write in flight, so the caller quiesces writers first and collects
// what a crash-tolerant write may leave dangling (GCDangling) before
// the audit. A read that fails is returned as such, never taken for a
// missing entry.
func (m *Maintainer) AuditMirror(cl *kvstore.Client, ix *schema.Index) (records, entries int, err error) {
	fail := func(err error) (int, int, error) {
		return records, entries, fmt.Errorf("index: audit of %s: %w", ix.Name, err)
	}
	t := m.src.Catalog().Table(ix.Table)
	if t == nil {
		return fail(fmt.Errorf("unknown table %q", ix.Table))
	}
	set, err := readPrefix(cl, kvstore.Range, RecordPrefix(t), kvstore.ReadOpts{})
	if err != nil {
		return fail(err)
	}
	want := make(map[string]bool)
	for _, kv := range set.Items {
		row, err := value.DecodeRow(kv.Value)
		if err != nil {
			return fail(fmt.Errorf("corrupt record %q: %w", kv.Key, err))
		}
		records++
		for _, key := range EntryKeys(ix, t, row) {
			want[string(key)] = true
		}
	}
	if set, err = readPrefix(cl, kvstore.Range, IndexPrefix(ix), kvstore.ReadOpts{}); err != nil {
		return fail(err)
	}
	for _, kv := range set.Items {
		entries++
		if !want[string(kv.Key)] {
			return fail(fmt.Errorf("entry %q has no record behind it", kv.Key))
		}
		delete(want, string(kv.Key))
	}
	for key := range want {
		return fail(fmt.Errorf("a record is missing its entry %q", key))
	}
	return records, entries, nil
}

// entryDangling reports whether the index entry key points at a record
// that no longer exists or no longer produces it (stale after a
// half-completed update). An undecodable record is not dangling — its
// entry may still be live, and deleting on corruption would hide the
// corruption.
func (m *Maintainer) entryDangling(cl *kvstore.Client, ix *schema.Index, t *schema.Table, ekey []byte) (bool, error) {
	rkey, err := AppendRecordKey(nil, ix, t, ekey)
	if err != nil {
		return false, err
	}
	rec, _, ok, err := cl.Read(rkey, kvstore.ReadOpts{})
	if err != nil || !ok {
		return err == nil, err
	}
	row, err := value.DecodeRow(rec)
	if err != nil {
		return false, nil
	}
	for _, key := range EntryKeys(ix, t, row) {
		if bytes.Equal(key, ekey) {
			return false, nil
		}
	}
	return true, nil
}

// VerifyBuildSuspects asserts the build's ghost invariant over the
// build-tombstone registry's suspects: entry keys writers deleted while
// the backfill ran. Under versioned storage the backfill's re-put of
// such a key is stamped at the scan-begin version (snap) and the
// writer's delete tombstone is stamped later, so put-if-newer already
// guarantees the re-put cannot survive — the pre-versioning protocol
// re-fetched every suspect's record and deleted confirmed dangles here,
// which also had to re-converge replica-diverged ghosts. What remains
// is a version comparison per suspect: each must be absent (the
// tombstone won) or carry a version newer than snap (a live writer
// legitimately re-created it). A suspect still stamped at or before
// snap means a backfill write survived a later delete — a protocol
// violation, returned as an error, never silently repaired.
//
// For the check to be free of false positives the caller must exclude
// concurrent writers (e.g. hold the engine's write gate exclusively, or
// drain them), so no delete is mid-propagation when the versions are
// read. The read goes to each key's authoritative primary — the
// replica every write reaches first — so a replica trailing it can
// never masquerade as a ghost.
func (m *Maintainer) VerifyBuildSuspects(cl *kvstore.Client, ix *schema.Index, snap kvstore.Version, suspects [][]byte) error {
	if ix.Primary {
		return nil
	}
	for _, ekey := range suspects {
		_, ver, ok, err := cl.Read(ekey, kvstore.ReadOpts{From: kvstore.Primary})
		if err != nil {
			return fmt.Errorf("index: verifying build of %s: %w", ix.Name, err)
		}
		if ok && !ver.After(snap) {
			return fmt.Errorf("index: build ghost on %s: entry %q deleted during the backfill still carries scan version %+v (snap %+v)",
				ix.Name, ekey, ver, snap)
		}
	}
	return nil
}
