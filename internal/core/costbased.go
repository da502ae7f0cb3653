package core

import (
	"strings"

	"piql/internal/parser"
	"piql/internal/schema"
)

// CompileCostBased is the Section 8.3 baseline: a traditional optimizer
// that minimizes the *average* number of key/value operations, with no
// regard for worst-case bounds. For a single-relation query with a
// simple equality predicate it reads the matching section of a covering
// index on that column, however long — one range request on average —
// unless the PIQL plan is bounded by no more than that. For queries
// like the subscriber-intersection query that is an unbounded index
// scan (cheap for the average user, catastrophic for Lady GaGa); the
// PIQL compiler never emits one.
//
// Joins, and queries with no simple equality predicate, get the PIQL
// plan — enough for the paper's comparison.
func CompileCostBased(cat Catalog, stmt *parser.Select) (*Plan, error) {
	const scanCost = 1 // one range request, whatever it returns
	// The candidate: where the scan wins it is dropped, and the index it
	// would have read with it.
	piqlPlan, piqlErr := Compile(cat, stmt)
	if piqlErr == nil && piqlPlan.OpBound() <= scanCost {
		return piqlPlan, nil
	}
	q, _, chains, err := bind(cat, stmt)
	if err != nil {
		return nil, err
	}
	if len(q.rels) != 1 {
		return piqlPlan, piqlErr
	}
	r := &q.rels[0]
	order, err := phase1(q, nil, chains)
	if err != nil {
		return nil, err
	}
	ctx := &phase2Ctx{cat: cat, q: q, order: order}
	// The first simple equality predicate decides: every such scan costs
	// the same.
	for _, p := range r.eqPreds {
		if p.Op != parser.OpEq || p.InList != nil {
			continue
		}
		col := r.colName(p.Col)
		// A covering index (the equality column followed by every other
		// column) turns the scan into a single range RPC on average —
		// the plan the paper's cost-based optimizer picks.
		var buf [8]schema.IndexField
		fields := append(buf[:0], schema.IndexField{Column: col})
		for _, c := range r.table.Columns {
			if !strings.EqualFold(c.Name, col) {
				fields = append(fields, schema.IndexField{Column: c.Name})
			}
		}
		ix, reversed := ctx.ensureIndex(r.table, fields, 1)
		var residual []LocalPred
		for _, preds := range r.ownPreds() {
			for _, o := range preds {
				if o.Col != p.Col || o.Op != parser.OpEq || o.InList != nil {
					residual = append(residual, o)
				}
			}
		}
		var plan Physical = &IndexScan{
			Table:       r.table,
			TableOffset: r.offset,
			Index:       ix,
			Eq:          []KeyExpr{p.RHS},
			Ascending:   !reversed,
			Residual:    residual,
			Unbounded:   true,
			NeedDeref:   false, // covering: entries embed the whole row
		}
		if len(q.sort) > 0 {
			plan = &LocalSort{ChildPlan: plan, Keys: q.sort}
		}
		if q.stopK > 0 {
			plan = &LocalStop{ChildPlan: plan, K: q.stopK}
		}
		plan = &LocalProject{ChildPlan: plan, Cols: q.projCols, Names: q.projNames}
		return newPlan(plan, stmt, q, order, ctx.required)
	}
	return piqlPlan, piqlErr
}
