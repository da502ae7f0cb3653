// Package exec is the PIQL execution engine (Section 7): it runs
// compiled physical plans against the key/value store. Remote operators
// exploit the compiler's limit hints to batch their requests and can
// issue them in parallel; the three strategies of Section 8.5 —
// LazyExecutor, SimpleExecutor, ParallelExecutor — differ only in how
// those requests are issued. An operator hands each of its request sets
// to the store in one call — its keys to ReadBatch, its range to Scan, a
// sorted join's K per-key ranges to ScanRanges — and Run resolves the
// strategy once, into that call's ReadOpts (Lazy: a tuple-at-a-time
// walk). Whether the store issues a set's requests concurrently is its
// branch runner's business, not the operator's, which builds no branch.
//
// Because every compiled plan is statically bounded, operators
// materialize their (small) outputs. Each operator knows how many rows
// it is about to produce before it produces them, so it makes one
// allocation for all of their values (a slab) and carves the rows out
// of it; it knows the records it is about to decode too, so it grows one
// string arena by their exact value.StringBytes and decodes every string
// and blob of the batch into it; and it knows the keys it is about to
// send, so it evaluates them into a row on its stack and encodes them all
// into one buffer sized by codec.Size. The store answers a request set
// from one result buffer too. An operator's cost is its slab, its string
// arena, its key buffer and its result buffer, and nothing per row or per
// request. The sorted join
// materializes the page, not the candidates: its streams are merged on
// their entry keys, which the order-preserving codec makes the sort
// key, and only the entries the query keeps are dereferenced and
// decoded.
package exec

import (
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
	// key/value store concurrently (the default). It hands each request
	// set to the store in the same one call Simple does, with
	// ReadOpts.Parallel set: a multiget's per-node batches, a range's
	// per-partition scans and a sorted join's K per-key ranges then run
	// as concurrent branches on a simulated client, so the set costs its
	// slowest request. In immediate mode, where a request is in-memory
	// work, the store runs them one after another.
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

// Ctx carries one execution's environment.
type Ctx struct {
	Client   *kvstore.Client
	Params   []value.Value
	Strategy Strategy
	// Resume is the position plan.Pager resumes after: the previous page's
	// Result.Resume, nil for the first. It may have been in the user's
	// hands; the pager takes it only as a position inside its own range.
	Resume []byte
}

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
	e := &executor{plan: plan, ctx: ctx, lazy: ctx.Strategy == Lazy, opts: kvstore.ReadOpts{Parallel: ctx.Strategy == Parallel}}
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

// newSlab allocates room for count rows. Callers size it from the
// number of rows actually fetched, never from the plan's static bound:
// a scan limited by a cardinality constraint in the thousands usually
// returns a page.
func newSlab(count, width int) slab {
	return slab{vals: make([]value.Value, count*width), width: width}
}

// rows is newSlab for combined rows of the plan's width.
func (e *executor) rows(count int) slab { return newSlab(count, e.plan.RowWidth) }

func (s *slab) row() value.Row {
	r := s.vals[:s.width:s.width]
	s.vals = s.vals[s.width:]
	return r
}

// placeRecord decodes a stored record directly into the combined row at
// the table's offset — no intermediate row allocation — with its strings
// in the operator's arena.
func placeRecord(row value.Row, offset int, rec []byte, arena *strings.Builder) error {
	if _, err := value.DecodeRowArena(row[offset:], rec, arena); err != nil {
		return fmt.Errorf("exec: corrupt record: %w", err)
	}
	return nil
}

// stringBytes sizes an operator's string arena: the exact payload of the
// strings and blobs of the records it decodes (nil ones are none).
func stringBytes(recs [][]byte) int {
	n := 0
	for _, rec := range recs {
		n += value.StringBytes(rec)
	}
	return n
}

// degraded wraps a store read's error. Every store error is transient
// (it unwraps to kvstore.ErrTransient), so a read that could not reach a
// partition fails the query with a retryable error instead of quietly
// subtracting that partition's rows from the result.
func degraded(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("exec: degraded read: %w", err)
}

// getBatch resolves record keys according to the strategy: Lazy issues
// one read per key (tuple at a time, the paper's strawman); Simple issues
// one batched request set with the per-node batches sequential; Parallel
// issues them concurrently. Missing keys yield nil entries.
func (e *executor) getBatch(keys [][]byte) ([][]byte, error) {
	if !e.lazy {
		recs, err := e.ctx.Client.ReadBatch(keys, e.opts)
		return recs, degraded(err)
	}
	recs := make([][]byte, len(keys))
	for i, k := range keys {
		var err error // an absent key reads as a nil value
		if recs[i], _, _, err = e.ctx.Client.Read(k, e.opts); err != nil {
			return nil, degraded(err)
		}
	}
	return recs, nil
}
