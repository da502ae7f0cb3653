package index

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
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
// each under the index among ixs whose entry it is, when that index has
// an open backfill registry. Must be called before the deletes are
// issued: a key recorded after the builder collected the registry is
// guaranteed to be deleted after every backfill put of that key, which
// cannot leave a dangle.
func (m *Maintainer) recordBuildTombstones(ixs []*schema.Index, keys [][]byte) {
	if len(keys) == 0 || m.activeBuilds.Load() == 0 {
		return
	}
	m.tombMu.Lock()
	for _, ix := range ixs {
		if set, ok := m.buildTombs[ix.Signature()]; ok {
			prefix := IndexPrefix(ix)
			for _, k := range keys {
				if bytes.HasPrefix(k, prefix) {
					set[string(k)] = struct{}{}
				}
			}
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

// ErrCardinalityExceeded is returned when an insert, or an update that
// moves a row into another group, would violate a CARDINALITY LIMIT; per
// Section 7.2 the record is written first, checked with a count-range
// request, and undone on violation (an insert's deleted, an update's
// old record put back).
type ErrCardinalityExceeded struct {
	Table   string
	Columns []string
	Limit   int
}

func (e *ErrCardinalityExceeded) Error() string {
	return fmt.Sprintf("cardinality limit %d on %s(%s) exceeded",
		e.Limit, e.Table, strings.Join(e.Columns, ", "))
}

// snapshot loads the catalog once and returns it with the table's
// secondary indexes — the per-operation view. Each write loads it once
// and threads the index list through, so a concurrent copy-on-write
// catalog publish cannot make one write see two different index sets
// (e.g. writing entries for one set and rolling back a different one).
// Only AddTable makes a primary index, and it registers it before any
// other, so the secondary indexes are the rest of the catalog's list,
// which is read, not copied.
//
// Building indexes are included: the write path maintains an index from
// the moment it is registered, which is what lets the backfill flip it
// ready without a write gap (see engine.ensureBuilt).
func (m *Maintainer) snapshot(t *schema.Table) (*schema.Catalog, []*schema.Index) {
	cat := m.src.Catalog()
	ixs := cat.Indexes(t.Name)
	if len(ixs) > 0 && ixs[0].Primary {
		ixs = ixs[1:]
	}
	return cat, ixs
}

// Insert writes a full row through the write protocol, its record put by
// test-and-set, so a row already under its primary key fails it as a
// duplicate.
func (m *Maintainer) Insert(cl *kvstore.Client, t *schema.Table, row value.Row) error {
	if len(row) != len(t.Columns) {
		return fmt.Errorf("index: row has %d values, table %s has %d columns", len(row), t.Name, len(t.Columns))
	}
	cat, ixs := m.snapshot(t)
	return m.write(cl, cat, ixs, t, RecordKey(t, row), nil, row)
}

// Update rewrites an existing row from old, as the caller just read it,
// to row (same primary key), through the write protocol.
func (m *Maintainer) Update(cl *kvstore.Client, t *schema.Table, old, row value.Row) error {
	cat, ixs := m.snapshot(t)
	return m.write(cl, cat, ixs, t, RecordKey(t, row), old, row)
}

// Delete removes the row under pk, if there is one, through the write
// protocol. The stored row is decoded only to rebuild its entries, so in
// a table with no secondary index a record that does not decode is
// deleted like any other, and in one with an index it is refused as
// corrupt.
func (m *Maintainer) Delete(cl *kvstore.Client, t *schema.Table, pk value.Row) error {
	cat, ixs := m.snapshot(t)
	rkey := RecordKeyFromPK(t, pk)
	rec, _, ok, err := cl.Read(rkey, kvstore.ReadOpts{})
	if err != nil {
		return fmt.Errorf("index: delete %s: %w", t.Name, err) // unreachable is not missing: nothing was deleted, say so
	}
	if !ok {
		return nil // idempotent
	}
	old := value.Row{} // a row no index reads, which still names a delete
	if len(ixs) > 0 {
		if old, err = value.DecodeRow(rec); err != nil {
			return fmt.Errorf("index: corrupt record in %s: %w", t.Name, err)
		}
	}
	return m.write(cl, cat, ixs, t, rkey, old, nil)
}

// write is the paper's write protocol, the one path every write takes
// from the row old stored under rkey to new, against one catalog
// snapshot: old is nil for an insert and new is nil for a delete.
//
//  1. Put every entry new makes, as one set: ordering only matters
//     between the entries and the record, not among entries.
//  2. Write the record: test-and-set for an insert (uniqueness), put for
//     an update, delete for a delete.
//  3. Count each cardinality group new moved into (every group for an
//     insert). Over the limit, or uncounted, undo: old's record back (or
//     deleted), then the entries only new made.
//  4. Delete the entries only old made, as one set.
//
// The order tolerates a crash between any two steps with only dangling
// entries as fallout. Every store error is transient and returned
// wrapped (so engine.Retryable holds): whatever the write already did
// stays behind as the same benign dangling entries, which index GC
// collects, and the caller retries.
func (m *Maintainer) write(cl *kvstore.Client, cat *schema.Catalog, ixs []*schema.Index, t *schema.Table, rkey []byte, old, new value.Row) error {
	verb := "update"
	if old == nil {
		verb = "insert"
	} else if new == nil {
		verb = "delete"
	}
	fail := func(err error) error { return fmt.Errorf("index: %s %s: %w", verb, t.Name, err) }
	// record writes row's record under rkey, or deletes it for no row.
	record := func(row value.Row) error {
		if row == nil {
			return cl.Delete(rkey)
		}
		return cl.Put(rkey, value.EncodeRow(row))
	}
	news, olds := entryKeysFor(ixs, t, new), entryKeysFor(ixs, t, old)
	// (1)
	if err := cl.Apply(&kvstore.WriteSet{Keys: news}); err != nil {
		return fail(err)
	}
	// (2) TestAndSet is linearizable across rebalances: the store absorbs
	// epoch-fencing retries internally (a fenced decision was never made,
	// so re-running the test is safe), which means a false, error-free
	// return here is always a genuine duplicate — decided by the one
	// authoritative primary — never a routing artifact. Duplicate-key
	// detection and its rollback rely on that exactness. An error (retry
	// budget exhausted against a dead primary) means no decision was
	// made: surface it without the duplicate rollback.
	var err error
	if old == nil {
		var buf [256]byte // TestAndSet copies the record into its envelope
		var swapped bool
		if swapped, err = cl.TestAndSet(rkey, nil, value.AppendRow(buf[:0], new)); err == nil && !swapped {
			return m.unwindDuplicate(cl, ixs, t, rkey, new, news, fail)
		}
	} else {
		err = record(new)
	}
	if err != nil {
		return fail(err)
	}
	// (3) A count that could not be completed must not admit either: one
	// that skipped an unreachable partition is an undercount, and the row
	// would stay past the limit every static bound rests on. The undo
	// writes the record first, so readers stop seeing new, then deletes
	// new's entries.
	for _, card := range t.Cardinalities {
		if new == nil || old != nil && !moved(t, card.Columns, old, new) {
			continue
		}
		n, err := countMatching(cl, cat, t, card, new, rkey, news)
		if err == nil && n <= card.Limit {
			continue
		}
		if err := errors.Join(err, record(old), cl.Apply(&kvstore.WriteSet{Keys: m.only(ixs, news, olds), Del: true})); err != nil {
			return fail(err)
		}
		return &ErrCardinalityExceeded{Table: t.Name, Columns: card.Columns, Limit: card.Limit}
	}
	// (4)
	if err := cl.Apply(&kvstore.WriteSet{Keys: m.only(ixs, olds, news), Del: true}); err != nil {
		return fail(err)
	}
	return nil
}

// unwindDuplicate rolls back the entries, news, that an insert of row
// wrote before its test-and-set found a row under rkey, and returns the
// insert's error. While the colliding row still exists its entries may
// be shared with ours, so only delete ones the stored row does not also
// produce. If it was deleted between the failed test-and-set and this
// read, nothing is shared anymore — delete everything this insert wrote,
// or the entries would dangle forever. A read that failed is neither:
// which entries are shared is unknown, so none is deleted — taking
// "unreachable" for "deleted" would strip a surviving row of the entries
// it shares with this one.
func (m *Maintainer) unwindDuplicate(cl *kvstore.Client, ixs []*schema.Index, t *schema.Table, rkey []byte, row value.Row, news [][]byte, fail func(error) error) error {
	existing, _, ok, err := cl.Read(rkey, kvstore.ReadOpts{})
	if err != nil {
		return fail(err)
	}
	if ok {
		if old, derr := value.DecodeRow(existing); derr == nil {
			err = cl.Apply(&kvstore.WriteSet{Keys: m.only(ixs, news, entryKeysFor(ixs, t, old)), Del: true})
		}
	} else if err = cl.Apply(&kvstore.WriteSet{Keys: m.only(ixs, news, nil), Del: true}); err == nil {
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
				err = cl.Apply(&kvstore.WriteSet{Keys: entryKeysFor(ixs, t, winner)})
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

// moved reports whether a and b differ in any of cols.
func moved(t *schema.Table, cols []string, a, b value.Row) bool {
	for _, col := range cols {
		if ci := t.ColumnIndex(col); !value.Equal(a[ci], b[ci]) {
			return true
		}
	}
	return false
}

// entryKeysFor collects every secondary index entry key a row produces,
// in index order; none for no row. A plain index makes one key, so the
// header is sized at one key an index.
func entryKeysFor(ixs []*schema.Index, t *schema.Table, row value.Row) [][]byte {
	if row == nil {
		return nil
	}
	keys := make([][]byte, 0, len(ixs))
	for _, ix := range ixs {
		keys = appendEntryKeys(keys, ix, t, row)
	}
	return keys
}

// only returns the keys of keys, a row's entries as entryKeysFor built
// them, that other does not hold: the entries to delete. It takes them
// in place, so keys is spent, and records them as build tombstones
// before the caller deletes them.
func (m *Maintainer) only(ixs []*schema.Index, keys, other [][]byte) [][]byte {
	out := keys[:0]
	for _, key := range keys {
		if !slices.ContainsFunc(other, func(o []byte) bool { return bytes.Equal(o, key) }) {
			out = append(out, key)
		}
	}
	m.recordBuildTombstones(ixs, out)
	return out
}

// readPrefix reads, as a request set of kind, every key under prefix.
func readPrefix(cl *kvstore.Client, kind kvstore.RequestKind, prefix []byte, o kvstore.ReadOpts) (kvstore.RequestSet, error) {
	set := kvstore.RequestSet{Kind: kind, Range: kvstore.RangeRequest{Start: prefix, End: codec.PrefixEnd(prefix)}}
	err := cl.Issue(&set, o)
	return set, err
}

// countMatching counts rows sharing the constraint column values with
// row, whose record key the write built as rkey and whose entry keys, in
// the order of cat's secondary indexes, as entries: one count over the
// group's prefix in the index cat counts card through (CountingIndex),
// which is the primary index or one of those secondary indexes, so the
// prefix is a prefix of a key already built. Every table has one such
// index from AddTable on: a limit the record keys cannot count gets a
// limit index, retired only once another ready index counts the limit.
func countMatching(cl *kvstore.Client, cat *schema.Catalog, t *schema.Table, card schema.Cardinality, row value.Row, rkey []byte, entries [][]byte) (int, error) {
	ix := cat.CountingIndex(t, card)
	if ix == nil {
		return 0, fmt.Errorf("no index counts %s's %s", t.Name, card.String())
	}
	key, ns := rkey, len(RecordPrefix(t))
	if !ix.Primary {
		prefix := IndexPrefix(ix)
		i := slices.IndexFunc(entries, func(key []byte) bool { return bytes.HasPrefix(key, prefix) })
		key, ns = entries[i], len(prefix)
	}
	set, err := readPrefix(cl, kvstore.Count, groupPrefix(key, ns, t, card, row), kvstore.ReadOpts{Parallel: true})
	return set.N, err
}

// groupPrefix returns the first bytes of key, a record or entry key
// whose components past its ns-byte namespace lead with the constraint's
// columns in some order: the prefix the keys of every row in row's group
// share. A component's size does not depend on its direction or place,
// so the sizes of row's constraint values sum to the prefix's length.
// The prefix's capacity is clipped, so no append reaches into key, which
// the store keeps.
func groupPrefix(key []byte, ns int, t *schema.Table, card schema.Cardinality, row value.Row) []byte {
	end := ns
	for _, col := range card.Columns {
		end += codec.Size(row[t.ColumnIndex(col)])
	}
	return key[:end:end]
}

// BackfillAt builds a newly created secondary index from the existing
// records of its table. It is the scan half of the online build
// protocol: the index is registered (building) before the scan starts,
// so concurrent writes maintain it, and the caller flips it ready
// afterwards (engine.ensureBuilt, which also drains writers that could
// still hold a pre-registration catalog snapshot).
//
// Every entry the backfill writes is stamped at snap, a version the
// caller drew before the scan reads anything (WriteSet.At). That makes
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
		if err := cl.Apply(&kvstore.WriteSet{Keys: EntryKeys(ix, t, row), At: &snap}); err != nil {
			return fmt.Errorf("index: backfill of %s: %w", ix.Name, err)
		}
	}
	return nil
}

// MarkReady publishes ix ready, then retires each limit index of its
// table that no write counts through any more (schema.RetiredLimits), in
// this order:
//
//  1. publish ix ready: a write that starts from here counts through ix,
//     and still puts the limit index's entries;
//  2. drain: no write still counts through the limit index;
//  3. publish the catalog without it: a write that starts from here no
//     longer puts its entries;
//  4. drain: no write still puts them;
//  5. delete its entries, as one set.
//
// So no write that counts through the limit index overlaps one that no
// longer writes it. Dropped in step 1's publish, it would: each of two
// inserts into a group one short of its limit counts its own row and
// not the other's, and both go in past the limit. publish runs one
// copy-on-write catalog update and publishes it; drain returns once
// every write that started before the call has finished. A failed read
// or delete leaves the retired entries in a namespace no catalog names.
func (m *Maintainer) MarkReady(cl *kvstore.Client, ix *schema.Index, publish func(func(next *schema.Catalog)), drain func()) error {
	publish(func(next *schema.Catalog) { next.SetIndexReady(ix) })
	cat := m.src.Catalog()
	for _, limit := range cat.RetiredLimits(cat.Table(ix.Table)) {
		drain()
		publish(func(next *schema.Catalog) { next.DropIndex(limit) })
		drain()
		// Read from each partition's primary, which takes every write
		// first, as the backfill does; it also leaves the client's replica
		// draws to the reads its session goes on to issue.
		set, err := readPrefix(cl, kvstore.Range, IndexPrefix(limit), kvstore.ReadOpts{From: kvstore.Primary})
		if err == nil {
			keys := make([][]byte, len(set.Items))
			for i, kv := range set.Items {
				keys[i] = kv.Key
			}
			err = cl.Apply(&kvstore.WriteSet{Keys: keys, Del: true})
		}
		if err != nil {
			return fmt.Errorf("index: retiring %s: %w", limit.Name, err)
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
// guarantees the re-put cannot survive, and the check is a version
// comparison per suspect: each must be absent (the tombstone won) or
// carry a version newer than snap (a live writer legitimately
// re-created it). A suspect still stamped at or before snap means a
// backfill write survived a later delete — a protocol violation,
// returned as an error, never silently repaired.
//
// For the check to be free of false positives the caller must exclude
// concurrent writes for its whole run (the engine runs it inside its
// write barrier), so no delete is mid-propagation when the versions are
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
