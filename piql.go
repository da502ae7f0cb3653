// Package piql is a Go implementation of PIQL — the Performance-
// Insightful Query Language of Armbrust et al. (PVLDB 5(3), 2011):
// a scale-independent SQL subset compiled to statically bounded plans
// over a range-partitioned key/value store.
//
// A PIQL database guarantees that every query it accepts performs a
// bounded number of key/value store operations regardless of database
// size ("success tolerance"): queries that meet their service level
// objective on a small database keep meeting it as the site grows.
//
// Basic use:
//
//	db := piql.Open(piql.Config{Nodes: 4})
//	db.MustExec(`CREATE TABLE users (name VARCHAR(20), bio VARCHAR(140), PRIMARY KEY (name))`)
//	db.MustExec(`INSERT INTO users VALUES ('ann', 'hello')`, )
//	q, err := db.Prepare(`SELECT * FROM users WHERE name = ?`)
//	res, err := q.Execute(piql.Str("ann"))
//
// Queries the compiler cannot bound are rejected at Prepare time with a
// *piql.UnboundedQueryError carrying Performance Insight Assistant
// suggestions (add a CARDINALITY LIMIT, a PAGINATE clause, ...).
//
// # Concurrency
//
// A DB is safe for concurrent use by multiple goroutines: Exec, Query,
// Prepare, and Query.Execute may all be called from any number of
// goroutines on the same DB, as the paper's application-tier deployment
// model requires (many stateless app servers hammering one store). Internally the DB keeps a pool of engine sessions — one is
// checked out per call, so calls never contend on each other's
// key/value client. The engine underneath shares only
//
//   - a copy-on-write catalog with one writer (DDL, and Prepare once it
//     has admitted a plan that needs a new index, publish immutable
//     snapshots; the compiler only reads one, a refused query leaves
//     nothing in it, and queries never block on CREATE TABLE / CREATE
//     INDEX backfills),
//   - an RWMutex-guarded statement cache, by text: a SELECT's compiled
//     plan, an INSERT/UPDATE/DELETE's bound form (a hit takes a read lock
//     only and neither parses nor binds; DDL is not cached), and
//   - a single-flight index-backfill table (concurrent Prepares of
//     plans needing the same new index build it exactly once).
//
// Prepared Query and Cursor values may likewise be shared across
// goroutines; a Cursor's page position itself is not synchronized, so
// drive one cursor from one goroutine at a time (or Serialize it and
// resume elsewhere). SetStrategy applies to subsequent calls and should
// be set up front, not raced with in-flight queries.
//
// CREATE INDEX is safe under a concurrent write-heavy workload on the
// same table: the index is maintained by every write from the moment it
// is registered in the catalog (state "building"), the backfill drains
// in-flight writers before scanning, and queries are served from the
// index only once it flips to "ready". The store likewise rebalances
// under live traffic (see kvstore.Cluster.Rebalance).
package piql

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"piql/internal/analyze"
	"piql/internal/core"
	"piql/internal/engine"
	"piql/internal/exec"
	"piql/internal/kvstore"
	"piql/internal/predict"
	"piql/internal/value"
)

// Value is a dynamically typed PIQL value (query parameter or result
// cell). T says which payload it holds: read an INT as v.I, a VARCHAR as
// v.S, and the three payloads folded into those fields through their
// accessors — v.Float() for a DOUBLE, v.Bool() for a BOOLEAN, v.Bytes()
// (a copy) for a BLOB. Build values with the constructors below, never as
// struct literals: Float stores -0 as 0 and every NaN as one NaN, so that
// equal values are equal keys.
type Value = value.Value

// Row is an ordered tuple of values.
type Row = value.Row

// Constructors for parameters and literals.
var (
	// Str builds a string value.
	Str = value.Str
	// Int builds a 64-bit integer value.
	Int = value.Int
	// Float builds a 64-bit float value.
	Float = value.Float
	// Bool builds a boolean value.
	Bool = value.Bool
	// Null builds the NULL value.
	Null = value.Null
)

// Strategy selects how the execution engine issues key/value requests
// (Section 8.5 of the paper).
type Strategy = exec.Strategy

// Execution strategies.
const (
	// LazyExecutor requests one tuple at a time.
	LazyExecutor = exec.Lazy
	// SimpleExecutor batches requests using the compiler's limit hints.
	SimpleExecutor = exec.Simple
	// ParallelExecutor batches and issues requests concurrently (default).
	ParallelExecutor = exec.Parallel
)

// Config describes the simulated key/value store backing the database
// and the admission-control policy applied at Prepare time.
type Config struct {
	// Nodes is the number of storage servers (default 4).
	Nodes int
	// ReplicationFactor is the copies kept per item (default 2).
	ReplicationFactor int
	// Seed drives all simulation randomness (default 1).
	Seed int64

	// SLO is the response-time objective queries are admitted against:
	// with Enforce set and a model installed (UseSLOModel), Prepare
	// refuses queries whose predicted 99th-percentile latency exceeds
	// it (0 = no latency check).
	SLO time.Duration
	// MaxOps refuses queries whose static operation bound exceeds this
	// budget (0 = no budget). Unlike SLO it needs no trained model.
	MaxOps int
	// Enforce turns admission control on: over-budget or over-SLO plans
	// are refused with *ErrOverSLO (a query with no bound at all never
	// gets that far: the compiler rejects it whatever Enforce says). Off,
	// the same analysis still runs and is available through Query.Bound.
	Enforce bool
}

// DB is a PIQL database handle: a stateless query-processing library
// (parser, compiler, executor) over a distributed key/value store. It
// is safe for concurrent use by multiple goroutines (see the package
// comment).
type DB struct {
	eng   *engine.Engine
	pool  sync.Pool    // idle *engine.Session values
	strat atomic.Int32 // exec.Strategy applied to checked-out sessions
}

// Open creates an in-process PIQL database over a fresh simulated
// cluster.
func Open(cfg Config) *DB {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	if cfg.ReplicationFactor <= 0 {
		cfg.ReplicationFactor = 2
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	cluster := kvstore.New(kvstore.Config{
		Nodes:             cfg.Nodes,
		ReplicationFactor: cfg.ReplicationFactor,
		Seed:              cfg.Seed,
	}, nil)
	eng := engine.New(cluster)
	eng.SetAdmission(&analyze.Policy{
		Enforce: cfg.Enforce,
		SLO:     cfg.SLO,
		MaxOps:  cfg.MaxOps,
	})
	db := &DB{eng: eng}
	db.strat.Store(int32(exec.Parallel))
	return db
}

// UseSLOModel installs a trained latency model for admission control:
// with Config.SLO and Config.Enforce set, subsequent Prepares refuse
// queries whose predicted 99th-percentile latency exceeds the SLO in
// more than 10% of intervals.
func (db *DB) UseSLOModel(m *SLOModel) {
	p := *db.eng.Admission() // Open always installs a policy
	p.Model = m.model
	db.eng.SetAdmission(&p)
}

// acquire checks a session out of the pool (creating one if none is
// idle) for the duration of a single call; sessions are single-goroutine
// objects, so every concurrent call gets its own.
func (db *DB) acquire() *engine.Session {
	s, ok := db.pool.Get().(*engine.Session)
	if !ok {
		s = db.eng.Session(nil)
	}
	s.SetStrategy(Strategy(db.strat.Load()))
	return s
}

func (db *DB) release(s *engine.Session) { db.pool.Put(s) }

// SetStrategy selects the execution strategy for subsequent queries.
func (db *DB) SetStrategy(s Strategy) { db.strat.Store(int32(s)) }

// Exec runs a DDL or DML statement (CREATE TABLE/INDEX, INSERT, UPDATE,
// DELETE). DML is parsed and bound to the catalog once per text — its
// literals type-checked, the WHERE of an UPDATE or DELETE held to one
// equality per primary-key column — so pass values as parameters.
func (db *DB) Exec(sql string, params ...Value) error {
	s := db.acquire()
	defer db.release(s)
	return s.Exec(sql, params...)
}

// MustExec is Exec, panicking on error — for schema setup in examples
// and tests.
func (db *DB) MustExec(sql string, params ...Value) {
	if err := db.Exec(sql, params...); err != nil {
		panic(err)
	}
}

// Result is one query result (a single page for paginated queries).
type Result struct {
	// Rows holds the projected output rows.
	Rows []Row
	// Names holds the output column names.
	Names []string
}

// Query prepares and executes in one step.
func (db *DB) Query(sql string, params ...Value) (*Result, error) {
	q, err := db.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return q.Execute(params...)
}

// UnboundedQueryError reports a query rejected as not scale-independent,
// with the Performance Insight Assistant's feedback (Section 6.4).
type UnboundedQueryError struct {
	// Segment is the plan section that could not be bounded.
	Segment string
	// Reason explains why.
	Reason string
	// Suggestions are concrete fixes (cardinality limits, pagination).
	Suggestions []string
}

func (e *UnboundedQueryError) Error() string {
	msg := fmt.Sprintf("piql: query is not scale-independent: %s (%s)", e.Reason, e.Segment)
	for _, s := range e.Suggestions {
		msg += "\n  suggestion: " + s
	}
	return msg
}

// Bound is the static boundedness analysis attached to every prepared
// query: the symbolic worst-case operation bound per remote operator
// (see internal/analyze).
type Bound = analyze.Bound

// ErrUnbounded reports a query refused by admission control because no
// static operation bound exists. No call of this package returns it: the
// PIQL compiler rejects such a query first, with *UnboundedQueryError;
// only the engine's cost-based baseline compiles an unbounded plan.
type ErrUnbounded = analyze.ErrUnbounded

// ErrOverSLO reports a bounded query refused by admission control: its
// static bound exceeds Config.MaxOps, or its predicted 99th-percentile
// latency exceeds Config.SLO.
type ErrOverSLO = analyze.ErrOverSLO

// Query is a compiled, reusable, statically bounded query.
type Query struct {
	db  *DB
	pre *engine.Prepared
}

// Prepare compiles a SELECT. Unbounded queries fail with
// *UnboundedQueryError; an admitted plan's new secondary indexes are
// registered and backfilled before Prepare returns.
func (db *DB) Prepare(sql string) (*Query, error) {
	s := db.acquire()
	pre, err := s.Prepare(sql)
	db.release(s)
	if err != nil {
		var nsi *core.NotScaleIndependentError
		if errors.As(err, &nsi) {
			return nil, &UnboundedQueryError{
				Segment:     nsi.Segment,
				Reason:      nsi.Reason,
				Suggestions: nsi.Suggestions,
			}
		}
		return nil, err
	}
	return &Query{db: db, pre: pre}, nil
}

// Execute runs the query with the given parameters. It is safe to call
// concurrently from multiple goroutines on the same Query.
func (q *Query) Execute(params ...Value) (*Result, error) {
	s := q.db.acquire()
	res, err := q.pre.Execute(s, params...)
	q.db.release(s)
	if err != nil {
		return nil, err
	}
	return &Result{Rows: res.Rows, Names: res.Names}, nil
}

// OpBound returns the static upper bound on key/value store operations
// one execution may perform — the scale-independence guarantee. It is
// Bound().Ops.
func (q *Query) OpBound() int { return q.pre.Bound().Ops }

// Bound returns the full static analysis: the per-operator operation
// bounds, whose symbolic derivations Bound.Chain and Bound.String word.
func (q *Query) Bound() *Bound { return q.pre.Bound() }

// Explain renders the physical plan with per-operator bounds.
func (q *Query) Explain() string { return q.pre.Plan().Explain() }

// ExplainLogical renders the Phase I logical plan (data-stop normal
// form), as in the paper's Figure 3(c).
func (q *Query) ExplainLogical() string { return q.pre.Plan().ExplainLogical() }

// Cursor iterates a PAGINATE query one scale-independent page at a time.
// Its whole state is a position in the key order of one operator of the
// plan, the pager (Explain names it): the topmost sorted join, else the
// base index scan. A statement whose rows reach the stop in no
// operator's key order — a sort or an aggregate in the application tier,
// a primary-key IN list — has no such position, and Prepare refuses its
// PAGINATE with an *UnboundedQueryError that says what to change.
type Cursor struct {
	db  *DB
	cur *engine.Cursor
}

// Paginate opens a cursor (the query must have a PAGINATE clause).
func (q *Query) Paginate(params ...Value) (*Cursor, error) {
	cur, err := q.pre.Paginate(params...)
	if err != nil {
		return nil, err
	}
	return &Cursor{db: q.db, cur: cur}, nil
}

// Next returns the next page, or nil when exhausted. A page holds at most
// the PAGINATE size and may hold fewer rows, even none, before the last:
// rows dropped above the pager (a join partner that is gone, an index
// entry whose record is) shorten the page without ending the cursor —
// Done, not a short page, says there is no more. A Cursor tracks
// its page position without synchronization: share it across goroutines
// only hand-off style (or via Serialize/RestoreCursor).
func (c *Cursor) Next() (*Result, error) {
	s := c.db.acquire()
	res, err := c.cur.Next(s)
	c.db.release(s)
	if err != nil || res == nil {
		return nil, err
	}
	return &Result{Rows: res.Rows, Names: res.Names}, nil
}

// Done reports whether the cursor is exhausted.
func (c *Cursor) Done() bool { return c.cur.Done() }

// Serialize captures the cursor state (query, parameters, the pager's
// position) so it can be shipped to the user with the page and resumed
// on any application server.
func (c *Cursor) Serialize() []byte { return c.cur.Serialize() }

// RestoreCursor reconstructs a serialized cursor. The bytes are
// untrusted input: the layout and its version are checked, the statement
// is prepared — compiled and admitted — like any other, and the pager
// accepts the position only inside the range its statement and
// parameters select, so a forged position moves within those rows or
// fails the next page. The statement and parameters themselves are part
// of the bytes; an application that must not let users pick them keeps
// its own copy or signs what it ships.
func (db *DB) RestoreCursor(data []byte) (*Cursor, error) {
	s := db.acquire()
	cur, err := db.eng.RestoreCursor(s, data)
	db.release(s)
	if err != nil {
		return nil, err
	}
	return &Cursor{db: db, cur: cur}, nil
}

// SLOModel predicts SLO compliance for compiled queries (Section 6). A
// model is trained once per cluster class by sampling operator latency
// distributions, independent of any application schema.
type SLOModel struct {
	model *predict.Model
}

// TrainSLOModel samples the remote operators on a simulated cluster and
// returns the prediction model. Training takes a few tens of seconds
// (the FastTrainConfig grid).
func TrainSLOModel() (*SLOModel, error) {
	m, err := predict.Train(predict.FastTrainConfig())
	if err != nil {
		return nil, err
	}
	return &SLOModel{model: m}, nil
}

// SLOPrediction summarizes the predicted distribution of per-interval
// 99th-percentile latencies for a query.
type SLOPrediction struct {
	// Max99 is the most conservative estimate: the worst per-interval
	// 99th-percentile latency seen across training intervals.
	Max99 time.Duration
	// Mean99 is the mean per-interval 99th percentile.
	Mean99 time.Duration
	pred   *predict.Prediction
}

// MeetsSLO reports whether the query's 99th-percentile latency is
// predicted to stay under slo in at least fraction q of intervals
// (e.g. MeetsSLO(500*time.Millisecond, 0.9)).
func (p *SLOPrediction) MeetsSLO(slo time.Duration, q float64) bool {
	return p.pred.MeetsSLO(slo, q)
}

// Predict evaluates a compiled query against the model.
func (m *SLOModel) Predict(q *Query) (*SLOPrediction, error) {
	pred, err := q.pre.Bound().Predict(m.model)
	if err != nil {
		return nil, err
	}
	return &SLOPrediction{Max99: pred.Max99, Mean99: pred.Mean99, pred: pred}, nil
}
