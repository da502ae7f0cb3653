// Package engine assembles the PIQL database library of Figure 2: the
// catalog, the compiler, the execution engine, and the write path, all
// running stateless in the application tier against the key/value store.
//
// # Concurrency
//
// One Engine serves any number of Sessions concurrently, each from its
// own goroutine — PIQL's application-tier library is stateless per
// request, so throughput scales with clients. The shared state is
// organized so the hot path never blocks:
//
//   - the catalog is an immutable snapshot published through an atomic
//     pointer, and updateCatalog is its one writer: DDL, the
//     registration of the indexes an admitted plan asks for, and the
//     flip to ready each clone the snapshot, mutate the clone under a
//     writer lock, and publish it — queries keep reading the old
//     snapshot without locking. The compiler only reads a snapshot
//     (core.Compile is a function), so a cold Prepare compiles on the
//     published snapshot itself and a refused query leaves nothing;
//   - the statement cache — a SELECT's compiled plan, a DML statement's
//     bound form, by text — is guarded by an RWMutex, so cache hits (the
//     steady state) take only a read lock and neither parse nor bind;
//   - index backfills are deduplicated by signature with a single-flight
//     table: the first session builds, racing sessions wait for the
//     build to finish instead of double-building or — worse — reading an
//     index mid-backfill.
//
// A Session itself is single-goroutine (it owns a kvstore.Client and a
// strategy override); spawn one Session per goroutine.
//
// # Online index builds
//
// CREATE INDEX is safe under concurrent writes to the same table. An
// index has a lifecycle in the catalog: it is registered as building
// (schema.StateBuilding) — from that moment every write maintains its
// entries — then the backfill scans the existing records and flips it
// ready (schema.StateReady) through a copy-on-write catalog publish.
// The planner only serves queries from ready indexes. One write-gap
// window remains between registration and the backfill scan: a writer
// that loaded the catalog before the index was published would neither
// maintain the index nor be seen by a scan that already passed its row.
// The engine closes it with a write barrier: every write statement holds
// a claim for its duration (Session.beginOp), and after publishing the
// index and before scanning, the builder holds new writes at the door and
// waits out the claimed ones (Engine.drain): any write that starts after
// the drain sees the published index and maintains it; any write that
// started before finishes before the scan and is picked up by it.
package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"piql/internal/analyze"
	"piql/internal/core"
	"piql/internal/exec"
	"piql/internal/index"
	"piql/internal/kvstore"
	"piql/internal/parser"
	"piql/internal/schema"
	"piql/internal/sim"
	"piql/internal/value"
)

// Engine is one application-tier PIQL library instance. It is stateless
// between requests apart from the catalog and the statement cache; all
// data lives in the key/value store. An Engine is safe for concurrent
// use by multiple sessions (see the package comment).
type Engine struct {
	cluster *kvstore.Cluster
	maint   *index.Maintainer

	// cat holds the current copy-on-write catalog snapshot. Readers
	// load it without locking; writers serialize on ddlMu, clone,
	// mutate the clone, and publish it here.
	cat   atomic.Pointer[schema.Catalog]
	ddlMu sync.Mutex

	// The statement cache, by SQL text: a SELECT's compiled plan, a DML
	// statement's bound form, both immutable.
	stmtMu sync.RWMutex
	plans  map[string]*Prepared
	writes map[string]*core.Write

	buildMu sync.Mutex
	builds  map[string]*indexBuild // in-flight/completed backfills by signature

	// The write gate closes the index-build write-gap window. writing
	// counts the write statements in progress, each claimed for its whole
	// duration (beginOp/endOp, loading the catalog inside); draining
	// counts the pending barriers (drain), which hold new writes at the
	// door until no write is in progress, so no writer can still be
	// acting on a catalog snapshot taken before the barrier.
	writing, draining atomic.Int32

	// admission is the SLO admission-control policy applied by Prepare
	// (Section 6: queries whose static bound or predicted latency
	// violates the SLO are refused before they ever run). Nil or
	// non-enforcing policies admit everything; the bound is attached to
	// the prepared plan either way.
	admission atomic.Pointer[analyze.Policy]
}

// New creates an engine over a cluster.
func New(cluster *kvstore.Cluster) *Engine {
	e := &Engine{
		cluster: cluster,
		plans:   make(map[string]*Prepared),
		writes:  make(map[string]*core.Write),
		builds:  make(map[string]*indexBuild),
	}
	e.cat.Store(schema.NewCatalog())
	e.maint = index.NewMaintainer(e) // live source: writes see new indexes immediately
	return e
}

// SetAdmission installs (or, with nil, removes) the admission-control
// policy. The policy applies to every subsequent Prepare, including
// cache hits: a plan admitted under an old policy is re-checked against
// the new one, so tightening the SLO takes effect without a cache
// flush.
func (e *Engine) SetAdmission(p *analyze.Policy) { e.admission.Store(p) }

// Admission returns the current admission policy (nil if none).
func (e *Engine) Admission() *analyze.Policy { return e.admission.Load() }

// Catalog returns the current catalog snapshot. The snapshot is
// immutable; concurrent DDL publishes new snapshots rather than
// mutating this one.
func (e *Engine) Catalog() *schema.Catalog { return e.cat.Load() }

// Cluster exposes the underlying store.
func (e *Engine) Cluster() *kvstore.Cluster { return e.cluster }

// Session is a per-goroutine handle: it owns a key/value client (and
// thus a virtual-time identity in simulated mode), a strategy override,
// and the execution context every statement it runs goes through, whose
// buffers a warm session reuses. Sessions are cheap; create one per
// goroutine rather than sharing one across goroutines.
type Session struct {
	eng    *Engine
	client *kvstore.Client
	strat  exec.Strategy
	ctx    exec.Ctx
	// key and row are the write path's scratch: the key a write names and
	// the row it assembles, reused by the session's next write. The
	// maintainer keeps neither, and write clears both when it returns, so
	// an idle session keeps no write's strings alive.
	key, row value.Row
}

// Session creates a session. proc may be nil for immediate mode.
func (e *Engine) Session(proc *sim.Proc) *Session {
	return &Session{eng: e, client: e.cluster.NewClient(proc), strat: exec.Parallel}
}

// SetStrategy overrides the execution strategy for this session
// (Section 8.5's executor comparison); sessions start Parallel.
func (s *Session) SetStrategy(st exec.Strategy) { s.strat = st }

// Client exposes the session's store client (op counting, timing).
func (s *Session) Client() *kvstore.Client { return s.client }

// Exec runs a DDL or DML statement. Queries must go through Prepare.
// An INSERT, UPDATE or DELETE is parsed and bound once (core.BindWrite)
// and its bound form cached by text beside the compiled plans, so a text
// seen before costs one read-locked lookup and its execution. DDL runs
// uncached.
func (s *Session) Exec(sql string, params ...value.Value) error {
	e := s.eng
	e.stmtMu.RLock()
	w, hit := e.writes[sql]
	e.stmtMu.RUnlock()
	if hit {
		return s.write(w, params)
	}
	stmt, err := parser.Parse(sql)
	if err != nil {
		return err
	}
	switch stmt := stmt.(type) {
	case *parser.CreateTable:
		return e.createTable(stmt.Table)
	case *parser.CreateIndex:
		return e.createIndex(s, stmt.Index)
	case *parser.Select:
		return fmt.Errorf("engine: use Prepare/Query for SELECT statements")
	}
	if w, err = core.BindWrite(e.cat.Load(), stmt); err != nil {
		return err
	}
	e.stmtMu.Lock()
	e.writes[sql] = w // sessions that raced to bind the text store equal bindings
	e.stmtMu.Unlock()
	return s.write(w, params)
}

// updateCatalog runs one copy-on-write catalog mutation: clone the
// latest snapshot under ddlMu, apply fn to the clone, and publish it
// only if fn succeeds — a failing mutation leaves no trace. Every
// catalog write goes through here.
func (e *Engine) updateCatalog(fn func(next *schema.Catalog) error) error {
	e.ddlMu.Lock()
	defer e.ddlMu.Unlock()
	next := e.cat.Load().Clone()
	if err := fn(next); err != nil {
		return err
	}
	e.cat.Store(next)
	return nil
}

func (e *Engine) createTable(t *schema.Table) error {
	return e.updateCatalog(func(next *schema.Catalog) error {
		return next.AddTable(t)
	})
}

func (e *Engine) createIndex(s *Session, ix *schema.Index) error {
	var canonical *schema.Index
	err := e.updateCatalog(func(next *schema.Catalog) error {
		var err error
		canonical, err = next.AddIndex(ix)
		return err
	})
	if err != nil {
		return err
	}
	return e.ensureBuilt(s, []*schema.Index{canonical})
}

// indexBuild is one in-flight or completed backfill: err is written
// before done is stored, so a waiter that loads done true sees it.
type indexBuild struct {
	err  error
	done atomic.Bool
}

// ensureBuilt backfills any indexes not yet ready in the catalog.
// Builds are single-flight per index signature: the first session to
// request an index runs the backfill while racing sessions wait until
// it completes, so none reads the index mid-backfill. A successful build
// first passes the read-only ghost assertion (deletes racing the
// backfill scan must have outranked its stamped re-puts on every
// suspect; see verifyBackfillRace) and only then flips the index to
// ready through a copy-on-write catalog publish, retiring any limit
// index it makes redundant (markReady); a failed or
// assertion-violating build is forgotten so a later Prepare can retry
// it.
func (e *Engine) ensureBuilt(s *Session, ixs []*schema.Index) error {
	for _, ix := range ixs {
		if ix.Primary {
			continue
		}
		if e.Catalog().IndexState(ix) == schema.StateReady {
			continue // steady state: no locks
		}
		sig := ix.Signature()
		e.buildMu.Lock()
		b, inFlight := e.builds[sig]
		if !inFlight {
			b = &indexBuild{}
			e.builds[sig] = b
		}
		e.buildMu.Unlock()
		if inFlight {
			// Poll, yielding between attempts: a simulated session holds
			// the scheduler's token, which the builder needs to finish.
			for !b.done.Load() {
				s.client.Yield()
			}
			if b.err != nil {
				return b.err
			}
			continue
		}
		// This session is the builder. The index is already registered
		// (building) in the published catalog, so every write that starts
		// from here on maintains it. Open the build-tombstone registry
		// first — every delete that could race the scan records its entry
		// keys there — then drain writers that may still hold a pre-index
		// snapshot: any write that starts after the drain sees both the
		// index and the registry; any write from before finishes before
		// the scan and is picked up (or skipped) by it.
		// Draw the scan stamp first: the registry opens and the drain
		// runs after it, so every write that can race the scan — and in
		// particular every suspect the registry records — stamps itself
		// strictly newer than snap. (Drawn after the drain, a delete
		// that started in between could stamp older than the scan and
		// genuinely lose to its re-put.)
		snap := s.client.StampVersion()
		e.maint.BeginBuildTombstones(ix)
		e.drain(s, func() {})
		b.err = e.maint.BackfillAt(s.client, ix, snap)
		suspects := e.maint.TakeBuildTombstones(ix)
		// Assert before publishing, and even after a failed backfill:
		// the aborted scan may already have re-put entries for rows
		// deleted while it ran, and a retry's registry starts fresh —
		// these suspects are the only record of the candidate ghosts.
		// The check is read-only (the versioned store already guarantees
		// the delete won; see Maintainer.VerifyBuildSuspects), so a
		// violation fails the build — the index is never flipped ready
		// over a known ghost, and a later Prepare retries the build.
		if verr := e.verifyBackfillRace(s, ix, snap, suspects); verr != nil && b.err == nil {
			b.err = verr
		}
		if b.err == nil {
			b.err = e.markReady(s, ix)
		}
		if b.err != nil {
			e.buildMu.Lock()
			delete(e.builds, sig)
			e.buildMu.Unlock()
		}
		b.done.Store(true)
		if b.err != nil {
			return b.err
		}
	}
	return nil
}

// drain is the write barrier: it holds new writes at the door, waits
// until no write is in progress, runs fn with writes excluded, and
// reopens the door. A write that starts after drain began sees every
// catalog snapshot published before it; a write from before has
// finished. Waiting yields s's client: a simulated builder parks until
// the next event, because the writers it waits for are processes that
// need the scheduler's token to finish. Drains may overlap; each
// excludes writes, not other drains.
func (e *Engine) drain(s *Session, fn func()) {
	e.draining.Add(1)
	defer e.draining.Add(-1)
	for e.writing.Load() != 0 {
		s.client.Yield()
	}
	fn()
}

// beginOp claims a write for drain: it waits while a drain is pending,
// counts itself in, and backs out when a drain began in between, so a
// drain that has seen no write in progress sees none start. endOp
// releases the claim.
func (s *Session) beginOp() {
	e := s.eng
	for {
		for e.draining.Load() != 0 {
			s.client.Yield()
		}
		e.writing.Add(1)
		if e.draining.Load() == 0 {
			return
		}
		e.writing.Add(-1)
	}
}

func (s *Session) endOp() { s.eng.writing.Add(-1) }

// verifyBackfillRace asserts the delete-racing-backfill invariant: a
// row deleted while the backfill scan ran can have its entry re-put by
// the scan after the delete removed it, but the re-put is stamped at
// the scan-begin version and the delete's tombstone later, so the
// versioned store guarantees the delete wins on every replica. The
// suspects are the build-tombstone registry's contents — exactly the
// entry keys writers deleted while the backfill ran, with no index
// re-scan — and the check is a version comparison per suspect
// (Maintainer.VerifyBuildSuspects), run inside a drain so no delete is
// still mid-propagation when the versions are read. A non-nil return
// means the store broke its ordering invariant. The versions are read
// through an immediate (zero-latency) client, which never parks: a
// simulated builder keeps the scheduler's token for the whole check,
// and its requests pay no virtual time (maintenance cost is not part of
// the modeled workload).
func (e *Engine) verifyBackfillRace(s *Session, ix *schema.Index, snap kvstore.Version, suspects [][]byte) error {
	if len(suspects) == 0 {
		return nil
	}
	var err error
	e.drain(s, func() {
		err = e.maint.VerifyBuildSuspects(e.cluster.NewClient(nil), ix, snap, suspects)
	})
	return err
}

// markReady publishes a catalog snapshot with the index flipped to
// ready, then retires the limit indexes it leaves no write counting
// through (index.(*Maintainer).MarkReady), with s's client and drains.
// Idempotent.
func (e *Engine) markReady(s *Session, ix *schema.Index) error {
	publish := func(fn func(next *schema.Catalog)) {
		_ = e.updateCatalog(func(next *schema.Catalog) error {
			fn(next)
			return nil
		})
	}
	return e.maint.MarkReady(s.client, ix, publish, func() { e.drain(s, func() {}) })
}

// Prepared is a compiled, reusable query.
type Prepared struct {
	plan  *core.Plan
	sql   string
	bound *analyze.Bound
}

// Prepare compiles a SELECT (building any new indexes the plan needs)
// or returns the cached plan for previously prepared text. The cache
// hit — the steady state under load — takes only a read lock. Every
// prepared plan carries its static operation bound (Prepared.Bound);
// if an admission policy is enforced, unbounded or over-SLO plans are
// refused here — before any index is registered or built and before the
// plan is cached — with a typed
// *analyze.ErrUnbounded or *analyze.ErrOverSLO.
func (s *Session) Prepare(sql string) (*Prepared, error) {
	return s.prepare(sql, sql, core.Compile)
}

// PrepareCostBased compiles a SELECT the way the Section 8.3 baseline
// optimizer would — minimizing average operations with no regard for
// worst-case bounds — so it can produce executable *unbounded* plans
// the PIQL compiler refuses. This is the misbehaving-tenant path: with
// an enforcing admission policy installed, such plans are refused at
// Prepare with *analyze.ErrUnbounded; without one, they run.
func (s *Session) PrepareCostBased(sql string) (*Prepared, error) {
	return s.prepare("cost-based\x00"+sql, sql, core.CompileCostBased)
}

func (s *Session) prepare(cacheKey, sql string, compile func(core.Catalog, *parser.Select) (*core.Plan, error)) (*Prepared, error) {
	e := s.eng
	e.stmtMu.RLock()
	p, hit := e.plans[cacheKey]
	e.stmtMu.RUnlock()
	if hit {
		// Re-admit under the current policy: the plan may have been
		// cached before enforcement was tightened.
		if err := e.Admission().Admit(sql, p.bound); err != nil {
			return nil, err
		}
		return p, nil
	}

	stmt, err := parser.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*parser.Select)
	if !ok {
		return nil, fmt.Errorf("engine: Prepare expects a SELECT, got %T", stmt)
	}
	var plan *core.Plan
	var bound *analyze.Bound
	for registered := false; !registered; {
		// The compiler only reads the catalog, so cold compilations run on
		// the published snapshot with no lock held, fully in parallel.
		plan, err = compile(e.cat.Load(), sel)
		if err != nil {
			return nil, err
		}
		// Static boundedness analysis + admission control (Section 6),
		// before anything is registered, built or cached: a refused query
		// leaves no trace.
		bound = analyze.Plan(plan)
		if err := e.Admission().Admit(sql, bound); err != nil {
			return nil, err
		}
		// A lost registration compiles once more, on the snapshot that
		// holds the winner's index.
		registered, err = e.register(plan.RequiredIndexes)
		if err != nil {
			return nil, err
		}
	}
	if err := e.ensureBuilt(s, plan.RequiredIndexes); err != nil {
		return nil, err
	}
	p = &Prepared{plan: plan, sql: sql, bound: bound}
	e.stmtMu.Lock()
	if existing, ok := e.plans[cacheKey]; ok {
		p = existing // another session won the compile race; use its plan
	} else {
		e.plans[cacheKey] = p
	}
	e.stmtMu.Unlock()
	return p, nil
}

// errLostRegistration aborts register's catalog update unpublished.
var errLostRegistration = errors.New("engine: another session registered the index first")

// register publishes, as building, the indexes of an admitted plan that
// the compiler constructed — the ones no catalog has taken yet, which
// have no entry layout. AddIndex compiles the layout in place, so the
// plan's pointer becomes the catalog's. When another session registered
// one of the signatures first, nothing is published and register
// reports false: the plan holds an index the write path does not know,
// and the caller compiles again.
func (e *Engine) register(ixs []*schema.Index) (bool, error) {
	isNew := func(ix *schema.Index) bool { return ix.EntryLayout() == nil }
	if !slices.ContainsFunc(ixs, isNew) {
		return true, nil // the common case: no lock, no clone
	}
	err := e.updateCatalog(func(next *schema.Catalog) error {
		for _, ix := range ixs {
			if !isNew(ix) {
				continue
			}
			canonical, err := next.AddIndex(ix)
			if err != nil {
				return err
			}
			if canonical != ix {
				return errLostRegistration
			}
		}
		return nil
	})
	if errors.Is(err, errLostRegistration) {
		return false, nil
	}
	return err == nil, err
}

// Plan exposes the compiled plan (bounds, explain output).
func (p *Prepared) Plan() *core.Plan { return p.plan }

// Bound exposes the plan's static boundedness analysis: the symbolic
// per-operator operation bound attached at Prepare time.
func (p *Prepared) Bound() *analyze.Bound { return p.bound }

// SQL returns the source text.
func (p *Prepared) SQL() string { return p.sql }

// Execute runs the query and returns all rows (the single page, for
// paginated queries — use Paginate for cursors).
func (p *Prepared) Execute(s *Session, params ...value.Value) (*exec.Result, error) {
	return s.run(p.plan, params, nil)
}

// run executes plan through the session's reusable context. The Result
// does not point into the context, so it outlives the session's next run.
func (s *Session) run(plan *core.Plan, params []value.Value, resume []byte) (*exec.Result, error) {
	ctx := &s.ctx
	ctx.Client, ctx.Params, ctx.Strategy, ctx.Resume = s.client, params, s.strat, resume
	res, err := exec.Run(plan, ctx)
	ctx.Params, ctx.Resume = nil, nil // the caller's, not the session's to keep
	return res, err
}

// Query is shorthand for Prepare + Execute.
func (s *Session) Query(sql string, params ...value.Value) (*exec.Result, error) {
	p, err := s.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return p.Execute(s, params...)
}

// --- write path ---

// write runs a bound INSERT, UPDATE or DELETE. It holds a write claim
// for its whole duration, so an index backfill can drain it (see
// ensureBuilt): the binding names the table only, and the maintainer
// reads the table's indexes from the live catalog inside the claim, so a
// text bound before a CREATE INDEX maintains the new index.
func (s *Session) write(w *core.Write, params []value.Value) error {
	if len(params) < w.NumParams {
		return fmt.Errorf("engine: statement needs %d parameters, got %d", w.NumParams, len(params))
	}
	s.beginOp()
	defer s.endOp()
	defer func() { clear(s.key); clear(s.row) }()
	t := w.Table
	var pk, old value.Row // what an UPDATE or DELETE names: its key, the row under it
	if w.Key != nil {
		var err error
		if pk, err = w.Key.AppendEval(s.key[:0], params, nil); err != nil {
			return err
		}
		s.key = pk
		if w.Row == nil { // DELETE
			return s.eng.maint.Delete(s.client, t, pk)
		}
		// "The row is absent" and "the row's replicas are unreachable" are
		// different answers: the latter is transient and must not be reported
		// as a missing row (callers treat missing-row as a fatal semantic
		// error and would drop the update on the floor).
		rec, _, ok, err := s.client.Read(index.RecordKeyFromPK(t, pk), kvstore.ReadOpts{})
		if err != nil {
			return fmt.Errorf("engine: update %s: %w", t.Name, err)
		}
		if !ok {
			return fmt.Errorf("engine: no row in %s with primary key %s", t.Name, pk)
		}
		if old, err = value.DecodeRow(rec); err != nil {
			return fmt.Errorf("engine: corrupt record: %w", err)
		}
	}
	row, err := w.Row.AppendEval(s.row[:0], params, old)
	if err != nil {
		return err
	}
	s.row = row
	if err := checkTypes(t, row); err != nil {
		return err
	}
	if w.Key == nil { // INSERT
		return s.eng.maint.Insert(s.client, t, row)
	}
	// Primary key columns must not change through UPDATE.
	for i, col := range t.PrimaryKey {
		if !value.Equal(row[t.ColumnIndex(col)], pk[i]) {
			return fmt.Errorf("engine: UPDATE may not modify primary key column %q", col)
		}
	}
	return s.eng.maint.Update(s.client, t, old, row) // the maintainer finds the stale entries from old
}

// checkTypes holds an assembled row to its table's declaration — the
// values parameters supplied can only be checked here, at run time — and
// widens an integer stored in a DOUBLE column in place.
func checkTypes(t *schema.Table, row value.Row) error {
	for i, col := range t.Columns {
		v := row[i]
		if v.IsNull() {
			continue
		}
		if col.Type == value.TypeFloat && v.T == value.TypeInt {
			row[i] = value.Float(float64(v.I))
			continue
		}
		if v.T != col.Type {
			return fmt.Errorf("engine: column %s.%s is %s, got %s", t.Name, col.Name, col.Type, v.T)
		}
		if col.MaxLen > 0 && v.T == value.TypeString && len(v.S) > col.MaxLen {
			return fmt.Errorf("engine: value for %s.%s exceeds VARCHAR(%d)", t.Name, col.Name, col.MaxLen)
		}
	}
	for _, col := range t.PrimaryKey {
		if row[t.ColumnIndex(col)].IsNull() {
			return fmt.Errorf("engine: primary key column %s.%s is NULL", t.Name, col)
		}
	}
	return nil
}
