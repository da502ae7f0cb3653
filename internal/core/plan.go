package core

import (
	"fmt"
	"strings"

	"piql/internal/parser"
	"piql/internal/schema"
)

// Plan is a compiled, scale-independent physical query plan.
type Plan struct {
	// Root is the physical operator tree.
	Root Physical
	// Stmt is the source statement.
	Stmt *parser.Select
	// NumParams is how many parameters the query takes.
	NumParams int
	// OutputNames are the result column names.
	OutputNames []string
	// RequiredIndexes are the indexes the plan reads; the engine must
	// register and backfill any that are new (Section 5.3).
	RequiredIndexes []*schema.Index
	// PageSize is the PAGINATE page size (0 for non-paginated queries).
	PageSize int
	// Pager is the one operator a paginated plan's cursor belongs to: the
	// topmost SortedIndexJoin, else the base IndexScan. It alone reads and
	// writes the cursor's position, and its key order is the order rows
	// reach the stop. Nil for non-paginated queries.
	Pager Physical
	// RowWidth is the width of the combined row during execution.
	RowWidth int

	order       []*rel // join order, for explain output
	q           *boundQuery
	ops, tuples int // the static bound (walkBound's totals)
}

// Catalog is the compiler's view of a catalog: it reads tables, indexes
// and their states and has no method that writes one. *schema.Catalog
// satisfies it.
type Catalog interface {
	Table(name string) *schema.Table
	Indexes(table string) []*schema.Index
	IndexState(ix *schema.Index) schema.IndexState
}

// Compile runs the full PIQL compilation pipeline on a parsed SELECT:
// bind → Phase I (Algorithm 1) → Phase II (Algorithm 2) → static bound
// verification. It is a function of (cat, stmt) and leaves cat as it
// was: an index the plan reads and cat does not hold is constructed and
// listed in Plan.RequiredIndexes, for the caller to register and
// backfill before running the plan.
func Compile(cat Catalog, stmt *parser.Select) (*Plan, error) {
	q, edges, chains, err := bind(cat, stmt)
	if err != nil {
		return nil, err
	}
	order, err := phase1(q, edges, chains)
	if err != nil {
		return nil, err
	}
	root, required, err := phase2(cat, q, order)
	if err != nil {
		return nil, err
	}
	plan, err := newPlan(root, stmt, q, order, required)
	if err != nil {
		return nil, err
	}
	if plan.ops == Unbounded || plan.tuples == Unbounded {
		// Phase II only emits bounded operators; reaching this means a
		// compiler bug, not a user error.
		return nil, fmt.Errorf("core: internal: compiled plan is unbounded:\n%s", plan.Explain())
	}
	return plan, nil
}

// newPlan wraps an operator tree as a Plan: its static bound, the width
// of its combined row, and — or the PAGINATE is refused — its pager.
func newPlan(root Physical, stmt *parser.Select, q *boundQuery, order []*rel, required []*schema.Index) (*Plan, error) {
	plan := &Plan{
		Root:            root,
		Stmt:            stmt,
		NumParams:       q.numParams,
		OutputNames:     q.projNames,
		RequiredIndexes: required,
		order:           order,
		q:               q,
	}
	plan.tuples, plan.ops, _ = walkBound(root, nil, nil)
	for i := range q.rels {
		plan.RowWidth += len(q.rels[i].table.Columns)
	}
	var err error
	if q.page {
		plan.PageSize = q.stopK
		plan.Pager, err = pagerOf(root, q)
		keepPosition(plan.Pager)
	}
	return plan, err
}

// keepPosition clears from a pager's Skip the columns a page's position
// is rebuilt from when a stop cuts the page short (exec's entryKeyOf):
// its index's fields and its table's primary key, whether or not the
// statement names them.
func keepPosition(pager Physical) {
	var skip *uint64
	var t *schema.Table
	var ix *schema.Index
	switch n := pager.(type) {
	case *IndexScan:
		skip, t, ix = &n.Skip, n.Table, n.Index
	case *SortedIndexJoin:
		skip, t, ix = &n.Skip, n.Table, n.Index
	default:
		return
	}
	for _, f := range ix.Fields {
		*skip &^= columnBit(t, f.Column)
	}
	for _, c := range t.PrimaryKey {
		*skip &^= columnBit(t, c)
	}
}

// columnBit is column name's bit of a Skip over t (0 if t has no such
// column).
func columnBit(t *schema.Table, name string) uint64 {
	if ci := t.ColumnIndex(name); ci >= 0 {
		return 1 << ci
	}
	return 0
}

// pagerOf chooses a paginated plan's pager. A cursor is a position in
// one operator's key order, so that order has to be the order rows reach
// the stop: a sort or an aggregate on the way up rearranges them, and a
// primary-key lookup has no order at all. A position in sort-value
// order would still re-fetch and re-sort the whole section for every
// page — what PAGINATE exists to avoid — so those plans are refused.
func pagerOf(root Physical, q *boundQuery) (Physical, error) {
	refuse := func(n Physical, reason string, suggestions ...string) (Physical, error) {
		return nil, &NotScaleIndependentError{Query: q.stmt.String(), Segment: n.Label(), Reason: reason, Suggestions: suggestions}
	}
	const useLimit = "use LIMIT instead of PAGINATE: the result is bounded and comes back in one page"
	var rearranged Physical // the sort or aggregate between the stop and n
	for n := root; n != nil; n = n.Child() {
		switch n.(type) {
		case *LocalSort, *LocalAgg:
			rearranged = n
		case *PKLookup:
			return refuse(n, "PAGINATE over a primary-key lookup: its rows come back in one request set and have no position to resume from", useLimit)
		case *SortedIndexJoin, *IndexScan:
			switch rearranged.(type) {
			case *LocalAgg:
				return refuse(rearranged, "PAGINATE over an aggregate: groups are formed after the fetch and have no position in any index", useLimit)
			case *LocalSort:
				return refuse(rearranged, "PAGINATE over a sort in the application tier: rows are ordered after the fetch, so no index position says where the next page starts",
					"make the order a scan order: ORDER BY only columns of the relation read by "+n.Label()+", with no predicate on it that its index cannot serve and no join above it that can drop rows; the compiler then reads it through an index that ends in the ORDER BY columns",
					useLimit)
			}
			return n, nil
		}
	}
	return nil, fmt.Errorf("core: internal: paginated plan %s has no remote operator", root.Label())
}

// OpBound returns the static upper bound on key/value store operations
// for one execution of the plan (one page, for paginated queries) — the
// core scale-independence guarantee.
func (p *Plan) OpBound() int { return p.ops }

// TupleBound returns the static upper bound on tuples the plan emits.
func (p *Plan) TupleBound() int { return p.tuples }

// Explain renders the physical plan, one operator per line, children
// indented (remote operators are the indented leaves), each with the
// tuples it emits and the operations issued up to and including it.
func (p *Plan) Explain() string {
	var lines []string // leaf first, as walkBound visits
	walkBound(p.Root, nil, func(n Physical, tuples, ops int) {
		lines = append(lines, fmt.Sprintf("%s   [tuples<=%s ops<=%s]\n", n.Label(), boundStr(tuples), boundStr(ops)))
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "-- bound: %s key/value operations, %s tuples\n", boundStr(p.ops), boundStr(p.tuples))
	if p.Pager != nil {
		fmt.Fprintf(&sb, "-- cursor: a position in %s\n", p.Pager.Label())
	}
	for depth := range lines {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(lines[len(lines)-1-depth])
	}
	return sb.String()
}

func boundStr(b int) string {
	if b == Unbounded {
		return "∞"
	}
	return fmt.Sprintf("%d", b)
}

// ExplainLogical renders the Phase I result — the logical plan after
// predicate pushdown and data-stop insertion, in the normal form of the
// paper's Figure 3(c).
func (p *Plan) ExplainLogical() string {
	var sb strings.Builder
	depth := 0
	line := func(s string) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(s)
		sb.WriteByte('\n')
		depth++
	}
	if p.q.stopK > 0 {
		kind := "Stop"
		if p.q.page {
			kind = "PageStop"
		}
		line(fmt.Sprintf("%s %d", kind, p.q.stopK))
	}
	if len(p.q.aggs) > 0 {
		names := make([]string, len(p.q.aggs))
		for i, a := range p.q.aggs {
			names[i] = a.Name
		}
		line("Aggregate " + strings.Join(names, ", "))
	}
	if len(p.q.sort) > 0 {
		keys := make([]string, len(p.q.sort))
		for i, k := range p.q.sort {
			keys[i] = k.String()
		}
		line("Sort " + strings.Join(keys, ", "))
	}
	// Joins nest left-deep: render from the last join downward.
	for i := len(p.order) - 1; i >= 1; i-- {
		r := p.order[i]
		preds := make([]string, len(r.joinPreds))
		for j, jp := range r.joinPreds {
			preds[j] = jp.String()
		}
		line(fmt.Sprintf("Join %s (%s)", r.ref.Name(), strings.Join(preds, " AND ")))
		renderChain(&sb, depth, r)
	}
	renderChain(&sb, depth, p.order[0])
	return sb.String()
}

// renderChain renders one relation's access chain:
// abovePreds → DataStop → belowPreds → Relation.
func renderChain(sb *strings.Builder, depth int, r *rel) {
	line := func(s string) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(s)
		sb.WriteByte('\n')
		depth++
	}
	if len(r.abovePreds) > 0 {
		line("Selection " + predsStr(r.abovePreds))
	}
	if r.dataStopCard > 0 {
		line(fmt.Sprintf("DataStop %d", r.dataStopCard))
	}
	if len(r.belowPreds) > 0 {
		line("Selection " + predsStr(r.belowPreds))
	}
	line("Relation " + r.ref.String())
}

// RemoteOps returns the remote operators of the plan from the leaf
// upward; the SLO prediction model composes per-operator latency
// distributions in this order.
func (p *Plan) RemoteOps() []Physical {
	var out []Physical
	for n := p.Root; n != nil; n = n.Child() {
		switch n.(type) {
		case *PKLookup, *IndexScan, *IndexFKJoin, *SortedIndexJoin:
			out = append(out, n)
		}
	}
	// Reverse: leaf (executed first) comes first.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}
