// Package exec is the PIQL execution engine (Section 7): it runs
// compiled physical plans against the key/value store. Remote operators
// exploit the compiler's limit hints to batch their requests and can
// issue them in parallel; the three strategies of Section 8.5 —
// LazyExecutor, SimpleExecutor, ParallelExecutor — differ only in how
// those requests are issued. An operator hands each of its request sets
// (kvstore.RequestSet: its keys, its range, a sorted join's K per-key
// ranges) to issue, the executor's one call to the store, and Run
// resolves the strategy once, into that call's ReadOpts (Lazy: one tuple
// per call). Whether the store issues a set's requests concurrently is
// the store's business, not the operator's, which builds no branch.
//
// Because every compiled plan is statically bounded, operators
// materialize their (small) outputs. Each operator knows how many rows
// it is about to produce before it produces them, so it takes room for
// all of their values at once (a slab) and carves the rows out of it; it
// knows the records it is about to decode too, so it grows one string
// arena by their exact value.StringBytes and decodes into it every string
// and blob of the batch that the plan reads (an operator's Skip names the
// columns of its table that no reader above needs, and those stay out of
// both the row and the arena); and it knows the keys it is about to send,
// so it evaluates them into a row on its stack and encodes them all into
// one buffer sized by codec.Size. The store answers a request set
// from one result buffer too. An operator's cost is its string arena, and
// nothing per row or per request: its slab, its key buffer, the store's
// result buffer and the headers of the rows it hands its parent are
// carved from the Ctx's scratch, which a warm Ctx already holds. Only the
// root makes rows of its own, for the answer it returns. The sorted join
// materializes the page, not the candidates: its streams are merged on
// their entry keys, which the order-preserving codec makes the sort key,
// and only the entries the query keeps are dereferenced and decoded.
package exec

import (
	"errors"
	"fmt"
	"strings"

	"piql/internal/core"
	"piql/internal/kvstore"
	"piql/internal/value"
)

// Strategy selects how remote operators issue key/value requests. Run
// resolves it once per execution; no operator reads it.
type Strategy int

const (
	// Lazy requests one tuple at a time, like a traditional disk-based
	// engine — no batching, no parallelism.
	Lazy Strategy = iota
	// Simple batches each operator's requests using the compiler's limit
	// hints but waits for each batch before issuing the next.
	Simple
	// Parallel batches and issues all of an operator's requests to the
	// key/value store concurrently (the default): the same one call per
	// request set as Simple, with ReadOpts.Parallel set, so that on a
	// simulated client the set costs its slowest request.
	Parallel
)

// String returns the executor name used in the paper's Figure 12.
func (s Strategy) String() string {
	switch s {
	case Lazy:
		return "LazyExecutor"
	case Simple:
		return "SimpleExecutor"
	case Parallel:
		return "ParallelExecutor"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Ctx carries one execution's environment. It is reusable: a Ctx run
// again keeps the buffers its earlier runs carved their keys and store
// results from (engine.Session keeps one for all of its statements), so
// a warm Ctx spends nothing on them. Like its Client, a Ctx is for one
// goroutine at a time.
type Ctx struct {
	Client   *kvstore.Client
	Params   []value.Value
	Strategy Strategy
	// Resume is the position plan.Pager resumes after: the previous page's
	// Result.Resume, nil for the first. It may have been in the user's
	// hands; the pager takes it only as a position inside its own range.
	Resume []byte

	sc scratch // the bookkeeping of every run of a bounded plan
}

// scratch is an execution's bookkeeping: the keys its operators send,
// what the store returns for them, the headers of the rows an operator
// hands its parent, a sorted join's candidates and the values of the
// records every remote operator decodes. Run truncates it, and
// operators carve from it bump-style, so a run never overwrites what it
// carved earlier: a buffer without room is replaced (take) or regrown by
// the store's append, and what was carved keeps pointing into the old
// array. It keeps its high-water capacity between runs, which the plans'
// static bounds keep finite. Nothing a Result holds points into it: every
// plan root copies the values it returns into rows of its own, the
// strings those values hold lie in their operator's per-run arena, never
// here, and a Resume is the store's key bytes or freshly encoded. Nor
// does it hold on to a Result's strings: Run releases what it carved.
type scratch struct {
	keys    []byte                 // key bytes
	heads   [][]byte               // key headers, and a Gets' values
	kvs     []kvstore.KV           // ranges' items
	ranges  [][]kvstore.KV         // PerKeyRanges' items by range
	streams []stream               // a sorted join's streams
	reqs    []kvstore.RangeRequest // and their requests
	rows    []value.Row            // remote operators' row headers
	cands   []candidate            // a sorted join's candidate batch
	vals    []value.Value          // every remote operator's values (e.rows)
}

// reset truncates every buffer, keeping its capacity.
func (sc *scratch) reset() {
	sc.keys, sc.heads, sc.kvs = sc.keys[:0], sc.heads[:0], sc.kvs[:0]
	sc.ranges, sc.streams, sc.reqs = sc.ranges[:0], sc.streams[:0], sc.reqs[:0]
	sc.rows, sc.cands, sc.vals = sc.rows[:0], sc.cands[:0], sc.vals[:0]
}

// release clears what the run since reset carved into the values, the
// row headers, the streams and the candidates, so that a session idle
// between runs keeps no run's strings, nor their arenas, alive. The
// values hold every remote operator's strings. A run carves values more
// than once (a sorted join's child, then each of its rounds) and streams
// once per sorted join, and take may replace a buffer's array between two
// carves; the replaced array keeps the earlier carves' cells. Only the
// row headers and the streams' child rows point into a replaced values
// array, and only the candidates into a replaced streams array, so
// clearing these four leaves every replaced array unreachable. Whatever
// lies past a buffer's length was cleared by the run that carved it, or
// never carved: every cell is cleared once. The other buffers hold keys,
// the store's answers and requests.
func (sc *scratch) release() {
	clear(sc.vals)
	clear(sc.rows)
	clear(sc.streams)
	clear(sc.cands)
}

// take carves the next n elements of *buf, capped at n, so that
// appending to them can never run into what is carved after. A buffer
// without room is replaced by one at least twice as large, not grown in
// place. The elements may hold an earlier run's values: callers
// overwrite them.
func take[T any](buf *[]T, n int) []T {
	b := *buf
	if cap(b)-len(b) < n {
		b = fresh[T](max(2*cap(b), n))
	}
	*buf = b[:len(b)+n]
	return b[len(b) : len(b)+n : len(b)+n]
}

// fresh is take's slow path, out of line so that the operators it is
// inlined into allocate nothing themselves: TestWarmExecuteAllocations
// holds each plan shape to what it allocates on every run.
//
//go:noinline
func fresh[T any](capacity int) []T { return make([]T, 0, capacity) }

// Result is one (fully materialized) query result page.
type Result struct {
	// Rows are the projected output rows.
	Rows []value.Row
	// Names are the output column names.
	Names []string
	// More reports whether a paginated plan's pager has entries it has not
	// handed out yet. The page's length says nothing about it: a page whose
	// rows were dropped above the pager is short, even empty, with More set.
	More bool
	// Resume is the next page's Ctx.Resume (nil unless More): the whole of
	// a client-side cursor, the paper's last key of the uncompleted scan.
	Resume []byte
}

// Run executes a compiled plan and returns its result (one page, for
// paginated queries).
func Run(plan *core.Plan, ctx *Ctx) (*Result, error) {
	if ctx.Params == nil {
		ctx.Params = value.Row{}
	}
	if len(ctx.Params) < plan.NumParams {
		return nil, fmt.Errorf("exec: query needs %d parameters, got %d", plan.NumParams, len(ctx.Params))
	}
	sc := &ctx.sc
	if plan.OpBound() == core.Unbounded {
		// The cost-based baseline's scan reads a section of any length: its
		// buffers are this run's alone, and the Ctx keeps only what bounded
		// plans need.
		sc = new(scratch)
	}
	sc.reset()
	defer sc.release()
	e := &executor{plan: plan, ctx: ctx, sc: sc, lazy: ctx.Strategy == Lazy, opts: kvstore.ReadOpts{Parallel: ctx.Strategy == Parallel}}
	rows, err := e.run(plan.Root)
	if err != nil {
		return nil, err
	}
	res := &Result{Rows: rows, Names: plan.OutputNames, More: e.cur != nil && !e.cur.drained}
	if res.More {
		res.Resume = e.cur.position()
	}
	return res, nil
}

type executor struct {
	plan *core.Plan
	ctx  *Ctx
	sc   *scratch         // ctx's, or the run's own for an unbounded plan
	cur  *cursor          // set by plan.Pager, rewound by runStop; nil without a pager
	lazy bool             // the strategy is Lazy: remote operators walk tuple at a time
	opts kvstore.ReadOpts // what every store read passes: the strategy, resolved once by Run
}

// cursor is what a page leaves for the next.
type cursor struct {
	pos     []byte                   // a paging scan: the last key the page consumed
	at      map[string][]byte        // a paging sorted join: the suffix each stream resumed after, by stream key,
	streams []stream                 // the streams with the last one this page consumed,
	origin  map[*value.Value]*stream // and the stream each row it joined came from, by the row's first cell
	drained bool                     // the pager has nothing left to hand out
}

func (e *executor) run(n core.Physical) ([]value.Row, error) {
	switch n := n.(type) {
	case *core.PKLookup:
		return e.runPKLookup(n)
	case *core.IndexScan:
		return e.runIndexScan(n)
	case *core.IndexFKJoin:
		return e.runFKJoin(n)
	case *core.SortedIndexJoin:
		return e.runSortedJoin(n)
	case *core.LocalSort:
		return e.runSort(n)
	case *core.LocalStop:
		return e.runStop(n)
	case *core.LocalProject:
		return e.runProject(n)
	case *core.LocalAgg:
		return e.runAgg(n)
	default:
		return nil, fmt.Errorf("exec: unknown physical operator %T", n)
	}
}

// evalPreds reports whether row passes every predicate.
func (e *executor) evalPreds(row value.Row, preds []core.LocalPred) (bool, error) {
	for _, p := range preds {
		ok, err := p.Eval(row, e.ctx.Params)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// filterResidual applies an operator's residual predicates.
func (e *executor) filterResidual(rows []value.Row, preds []core.LocalPred) ([]value.Row, error) {
	if len(preds) == 0 {
		return rows, nil
	}
	out := rows[:0]
	for _, row := range rows {
		keep, err := e.evalPreds(row, preds)
		if err != nil {
			return nil, err
		}
		if keep {
			out = append(out, row)
		}
	}
	return out, nil
}

// slab hands out rows of one width carved from a single allocation.
// Rows are capped at their width (three-index slices), so appending to
// one can never run into its neighbour.
type slab struct {
	vals  []value.Value
	width int
}

// newSlab allocates room for count rows: the answer's, which runProject
// returns and so must not carve from the scratch. Callers size it from
// the number of rows actually fetched, never from the plan's static
// bound: a scan limited by a cardinality constraint in the thousands
// usually returns a page.
func newSlab(count, width int) slab {
	return slab{vals: make([]value.Value, count*width), width: width}
}

// rows is newSlab for combined rows of the plan's width, carved from the
// scratch instead of allocated. The carved values start as a fresh
// slab's do, all zero: the run that carved them before cleared them when
// it returned (scratch.release).
func (e *executor) rows(count int) slab {
	return slab{vals: take(&e.sc.vals, count*e.plan.RowWidth), width: e.plan.RowWidth}
}

func (s *slab) row() value.Row {
	r := s.vals[:s.width:s.width]
	s.vals = s.vals[s.width:]
	return r
}

// placeRecord decodes a stored record directly into the combined row at
// the table's offset — no intermediate row allocation — with its strings
// in the operator's arena. The columns set in skip, the operator's Skip,
// are left out: their cells stay as the carve left them, zero, and their
// strings never reach the arena, though the decoder still checks them.
// The record must hold exactly the table's width of values: a short one
// would leave cells of the row as they were, a long one would spill into
// the next table's.
func placeRecord(row value.Row, offset, width int, skip uint64, rec []byte, arena *strings.Builder) error {
	n, err := value.DecodeRowArena(row[offset:offset+width], rec, skip, arena)
	if err == nil && n != width {
		err = errRecordArity
	}
	if err != nil {
		return fmt.Errorf("exec: corrupt record: %w", err)
	}
	return nil
}

// errRecordArity refuses a record whose value count is not its table's.
var errRecordArity = errors.New("record's value count is not its table's column count")

// stringBytes sizes an operator's string arena: the exact payload of the
// strings and blobs of the records it decodes with skip (nil records are
// none).
func stringBytes(recs [][]byte, skip uint64) int {
	n := 0
	for _, rec := range recs {
		n += value.StringBytes(rec, skip)
	}
	return n
}

// issue hands one request set to the store in one call, its answers
// appended to the scratch, and returns the set with its own answers,
// each capped at its length. It is the executor's one call to the store.
// Under Lazy a set of more than one tuple is read by lazily instead, one
// tuple per call. Every store error is transient (it unwraps to
// kvstore.ErrTransient), so a read that could not reach a partition
// fails the query with a retryable error instead of quietly subtracting
// that partition's rows from the result.
func (e *executor) issue(set kvstore.RequestSet) (kvstore.RequestSet, error) {
	sc := e.sc
	vals, items, ranges := len(sc.heads), len(sc.kvs), len(sc.ranges)
	if e.lazy && (len(set.Keys) > 1 || set.Range.Limit > 1 || set.Kind == kvstore.PerKeyRanges) {
		if err := e.lazily(set); err != nil {
			return set, err
		}
	} else {
		set.Values, set.Items, set.PerRange = sc.heads, sc.kvs, sc.ranges
		if err := e.ctx.Client.Issue(&set, e.opts); err != nil {
			return set, fmt.Errorf("exec: degraded read: %w", err)
		}
		sc.heads, sc.kvs, sc.ranges = set.Values, set.Items, set.PerRange
	}
	set.Values = sc.heads[vals:len(sc.heads):len(sc.heads)]
	set.Items = sc.kvs[items:len(sc.kvs):len(sc.kvs)]
	set.PerRange = sc.ranges[ranges:len(sc.ranges):len(sc.ranges)]
	return set, nil
}

// lazily reads set one tuple per call, like a traditional disk-based
// engine: a one-key Gets per key, and each range tuple by tuple, a
// Limit 1 Range that starts past the key before.
func (e *executor) lazily(set kvstore.RequestSet) error {
	switch set.Kind {
	case kvstore.Gets:
		for i := range set.Keys {
			if _, err := e.issue(kvstore.RequestSet{Kind: kvstore.Gets, Keys: set.Keys[i : i+1]}); err != nil {
				return err
			}
		}
	case kvstore.PerKeyRanges:
		for _, req := range set.Ranges {
			one, err := e.issue(kvstore.RequestSet{Kind: kvstore.Range, Range: req})
			if err != nil {
				return err
			}
			e.sc.ranges = append(e.sc.ranges, one.Items)
		}
	default:
		// The successor key lives in one buffer reused across the range's
		// tuples. Rebinding it between calls is safe: the store reads a
		// set's bounds only for the duration of the call.
		var buf []byte
		one := kvstore.RequestSet{Kind: kvstore.Range, Range: set.Range}
		one.Range.Limit = 1
		for n := 0; n < set.Range.Limit; n++ {
			got, err := e.issue(one)
			if err != nil {
				return err
			}
			if len(got.Items) == 0 {
				break
			}
			if next := got.Items[0].Key; one.Range.Reverse {
				one.Range.End = next
			} else {
				buf = append(append(buf[:0], next...), 0x00)
				one.Range.Start = buf
			}
		}
	}
	return nil
}
