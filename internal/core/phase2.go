package core

import (
	"fmt"
	"strings"

	"piql/internal/parser"
	"piql/internal/schema"
	"piql/internal/value"
)

// phase2 implements Algorithm 2 (PlanGenerate): it maps each relation's
// access chain onto one of the three bounded remote operators —
// PKLookup/IndexScan for the base relation, IndexFKJoin or
// SortedIndexJoin for joined relations — wrapping residual predicates,
// sort, stop, aggregation, and projection as local operators. Any
// section it cannot bound aborts compilation with assistant feedback.
type phase2Ctx struct {
	cat      Catalog
	q        *boundQuery
	order    []*rel
	required []*schema.Index
	ordered  bool // current plan emits rows in q.sort order
}

func phase2(cat Catalog, q *boundQuery, order []*rel) (Physical, []*schema.Index, error) {
	ctx := &phase2Ctx{cat: cat, q: q, order: order}
	plan, err := ctx.matchBase(order[0])
	if err != nil {
		return nil, nil, err
	}
	for _, r := range order[1:] {
		plan, err = ctx.matchJoin(plan, r)
		if err != nil {
			return nil, nil, err
		}
	}
	if len(q.sort) > 0 && !ctx.ordered {
		plan = &LocalSort{ChildPlan: plan, Keys: q.sort}
	}
	if len(q.aggs) > 0 {
		names := make([]string, len(q.aggs))
		for i, a := range q.aggs {
			names[i] = a.Name
		}
		plan = &LocalAgg{ChildPlan: plan, GroupBy: q.groupBy, Aggs: q.aggs, Names: names}
	}
	if q.stopK > 0 {
		plan = &LocalStop{ChildPlan: plan, K: q.stopK}
	}
	if len(q.aggs) == 0 {
		plan = &LocalProject{ChildPlan: plan, Cols: q.projCols, Names: q.projNames}
	}
	return plan, ctx.required, nil
}

// splitPreds partitions a relation's own predicates by the part of a
// contiguous index section each can be (limitHintScan).
type predSplit struct {
	eqSimple []LocalPred         // col = const/param
	token    []LocalPred         // col CONTAINS word
	ranges   map[int][]LocalPred // inequalities by column ordinal
	other    []LocalPred         // IN lists, != and anything else that can be none
}

func splitPreds(r *rel) predSplit {
	s := predSplit{ranges: make(map[int][]LocalPred)}
	all := append(append([]LocalPred{}, r.eqPreds...), r.otherPreds...)
	for _, p := range all {
		switch {
		case p.Op == parser.OpEq && p.InList == nil:
			s.eqSimple = append(s.eqSimple, p)
		case p.Op == parser.OpContains:
			s.token = append(s.token, p)
		case p.Op == parser.OpLt || p.Op == parser.OpLe || p.Op == parser.OpGt || p.Op == parser.OpGe:
			s.ranges[p.Col] = append(s.ranges[p.Col], p)
		default:
			s.other = append(s.other, p)
		}
	}
	return s
}

// --- base relation access ---

func (ctx *phase2Ctx) matchBase(r *rel) (Physical, error) {
	// Case 1: equality (or IN) coverage of the full primary key —
	// bounded random lookups (Fig. 7's PIQL plan).
	if plan, ok := pkLookup(r); ok {
		ctx.ordered = len(ctx.q.sort) == 0
		return plan, nil
	}
	// Case 2: a data-stop bounds the matching tuples.
	if r.dataStopCard > 0 {
		return ctx.boundedIndexScan(r)
	}
	// Case 3: no schema bound; a stop with a fully index-expressible
	// predicate set still yields a bounded plan (Class I: fixed LIMIT
	// without joins). With joins, the stop may push below them only when
	// every later join is provably non-reductive — the rule that admits
	// the paper's search-by-title plan, where the stop of 50 sits under
	// the author join.
	if ctx.stopLimitsFetch(r) {
		return ctx.limitHintScan(r, splitPreds(r))
	}
	return nil, ctx.unboundedRelation(r)
}

// stopLimitsFetch reports whether the query-level stop may act as the
// fetch limit of r's access: every relation after r must join 1:1
// through a declared foreign key covering its primary key (guaranteed
// existence, so the join never drops rows) and carry no predicates of
// its own, and no aggregate may sit between them and the stop. Under a
// join that can drop rows the first stopK entries are not the first
// stopK results, and fetching only them returns a silently short page;
// under an aggregate the stop counts groups, and fetching only stopK
// entries counts stopK rows where the group holds more.
func (ctx *phase2Ctx) stopLimitsFetch(r *rel) bool {
	if ctx.q.stopK == 0 || len(ctx.q.aggs) > 0 {
		return false
	}
	at := 0
	for ctx.order[at] != r {
		at++
	}
	for _, later := range ctx.order[at+1:] {
		if len(later.eqPreds) > 0 || len(later.otherPreds) > 0 {
			return false
		}
		// The join columns must cover the full primary key...
		covered := make(map[string]bool)
		var outerCols []int
		for _, jp := range later.joinPreds {
			covered[strings.ToLower(later.colName(jp.col))] = true
			outerCols = append(outerCols, jp.outerCol)
		}
		for _, pk := range later.table.PrimaryKey {
			if !covered[strings.ToLower(pk)] {
				return false
			}
		}
		// ...and come from a declared FOREIGN KEY on the source relation.
		if !ctx.backedByForeignKey(later, outerCols) {
			return false
		}
	}
	return true
}

// backedByForeignKey reports whether the outer columns feeding the join
// into r are a declared foreign key referencing r's table.
func (ctx *phase2Ctx) backedByForeignKey(r *rel, outerCols []int) bool {
	for _, src := range ctx.order {
		if src == r {
			continue
		}
		for _, fk := range src.table.ForeignKeys {
			if !strings.EqualFold(fk.RefTable, r.table.Name) {
				continue
			}
			all := true
			for _, oc := range outerCols {
				ci := oc - src.offset
				if ci < 0 || ci >= len(src.table.Columns) {
					all = false
					break
				}
				if !containsFold(fk.Columns, src.table.Columns[ci].Name) {
					all = false
					break
				}
			}
			if all && len(outerCols) > 0 {
				return true
			}
		}
	}
	return false
}

// keyPick chooses, column by column, the one predicate that supplies a
// key component and remembers the choice, so that rest returns every
// predicate the key does not stand for. A second equality on a keyed
// column, or a join predicate the key has no place for, still has to
// hold: dropped, the operator returns rows that fail it.
type keyPick struct {
	r *rel
	// used has a bit per claimed predicate of r.joinPreds followed by
	// r.eqPreds. The shift drops the bits of a 65th predicate and later:
	// one that keys a column stays in rest as well, checked twice.
	used uint64
}

// take claims the predicate that keys column ci and returns it: the
// first join predicate on the column (as col = outer column), else the
// first plain equality, else — where the key may fan out, inList — the
// first IN list. It reports false when there is none or the column is
// keyed already.
func (k *keyPick) take(ci int, inList bool) (LocalPred, bool) {
	joins, at := len(k.r.joinPreds), -1
	for i, jp := range k.r.joinPreds {
		if jp.col == ci {
			at = i
			break
		}
	}
	if at < 0 {
		for i, p := range k.r.eqPreds {
			if p.Col != ci || p.Op != parser.OpEq {
				continue
			}
			if p.InList == nil {
				at = joins + i
				break
			}
			if inList && at < 0 {
				at = joins + i
			}
		}
	}
	if at < 0 || k.used&(1<<at) != 0 {
		return LocalPred{}, false
	}
	k.used |= 1 << at
	if at < joins {
		return k.r.joinPreds[at].local(), true
	}
	return k.r.eqPreds[at-joins], true
}

// rest returns the predicates no key component stands for, in r's own
// column numbering: join predicates first, then r's own in their order.
func (k *keyPick) rest() []LocalPred {
	var rest []LocalPred
	for i, jp := range k.r.joinPreds {
		if k.used&(1<<i) == 0 {
			rest = append(rest, jp.local())
		}
	}
	for i, p := range k.r.eqPreds {
		if k.used&(1<<(len(k.r.joinPreds)+i)) == 0 {
			rest = append(rest, p)
		}
	}
	return append(rest, k.r.otherPreds...)
}

// pkLookup matches equality predicates (or IN lists, expanded to their
// cartesian product) against the full primary key.
func pkLookup(r *rel) (*PKLookup, bool) {
	pick := keyPick{r: r}
	keys := []KeySpec{{}}
	for _, pk := range r.table.PrimaryKey {
		p, ok := pick.take(r.table.ColumnIndex(pk), true)
		if !ok {
			return nil, false
		}
		if p.InList == nil {
			for i := range keys {
				keys[i] = append(keys[i], p.RHS)
			}
			continue
		}
		expanded := make([]KeySpec, 0, len(keys)*len(p.InList))
		for _, k := range keys {
			for _, e := range p.InList {
				nk := make(KeySpec, len(k), len(k)+1)
				copy(nk, k)
				expanded = append(expanded, append(nk, e))
			}
		}
		keys = expanded
	}
	return &PKLookup{Table: r.table, TableOffset: r.offset, Keys: keys, Residual: shiftPreds(pick.rest(), r.offset)}, true
}

// boundedIndexScan builds the access path when a data-stop bounds the
// relation: an index over the constraint columns (extended with sort
// columns when that unlocks a limit hint), fetching at most the
// cardinality, with remaining predicates as a local selection — the
// paper's preferred shape, since it avoids indexing volatile attributes
// like SCADr's `approved` flag.
func (ctx *phase2Ctx) boundedIndexScan(r *rel) (Physical, error) {
	var fields []schema.IndexField
	var eq []KeyExpr
	for _, p := range r.belowPreds {
		if p.InList != nil {
			return nil, &NotScaleIndependentError{
				Query:   ctx.q.stmt.String(),
				Segment: fmt.Sprintf("relation %s", r.ref.Name()),
				Reason:  "IN predicates over cardinality-constraint columns are only supported when the full primary key is covered",
				Suggestions: []string{
					"cover the full primary key with equality predicates so the IN list expands to bounded random lookups",
				},
			}
		}
		fields = append(fields, schema.IndexField{Column: r.colName(p.Col)})
		eq = append(eq, p.RHS)
	}
	residual := append([]LocalPred{}, r.abovePreds...)

	limitHint := 0
	sortSatisfied := false
	if len(residual) == 0 {
		sortCols, ok := ctx.sortOnRelation(r)
		if ok {
			// Extend the index with the sort columns: the scan then
			// yields rows in query order and the stop can become a fetch
			// limit.
			fields = append(fields, sortCols...)
			sortSatisfied = true
		}
		if (ok || len(ctx.q.sort) == 0) && ctx.stopLimitsFetch(r) {
			limitHint = boundMin(ctx.q.stopK, r.dataStopCard)
		}
	}
	ix, reversed := ctx.ensureIndex(r.table, fields, len(eq))
	scan := &IndexScan{
		Table:        r.table,
		TableOffset:  r.offset,
		Index:        ix,
		Eq:           eq,
		Ascending:    !reversed,
		LimitHint:    limitHint,
		DataStopCard: r.dataStopCard,
		Residual:     shiftPreds(residual, r.offset),
		NeedDeref:    !ix.Primary,
	}
	ctx.ordered = sortSatisfied || len(ctx.q.sort) == 0
	return scan, nil
}

// limitHintScan builds a purely limit-hint-bounded scan: every predicate
// must be expressible as a contiguous index section.
func (ctx *phase2Ctx) limitHintScan(r *rel, split predSplit) (Physical, error) {
	if len(split.other) > 0 || len(split.token) > 1 || len(split.ranges) > 1 {
		return nil, ctx.unboundedRelation(r)
	}
	var fields []schema.IndexField
	var eq []KeyExpr
	for _, p := range split.token {
		fields = append(fields, schema.IndexField{Column: r.colName(p.Col), Token: true})
		eq = append(eq, p.RHS)
	}
	for _, p := range split.eqSimple {
		fields = append(fields, schema.IndexField{Column: r.colName(p.Col)})
		eq = append(eq, p.RHS)
	}
	// The single range column, if any, and its one bound on each side.
	var rangeCol = -1
	var lower, upper *RangeBound
	for ci, preds := range split.ranges {
		rangeCol = ci
		for _, p := range preds {
			b := &RangeBound{Expr: p.RHS, Inclusive: p.Op == parser.OpGe || p.Op == parser.OpLe}
			var err error
			if p.Op == parser.OpGt || p.Op == parser.OpGe {
				lower, err = ctx.tighterBound(r, p, lower, b, 1)
			} else {
				upper, err = ctx.tighterBound(r, p, upper, b, -1)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	sortSatisfied := true
	if sortCols, ok := ctx.sortOnRelation(r); ok {
		// The range column, if present, must be the first sort column
		// (otherwise the matching entries are non-contiguous).
		if rangeCol >= 0 {
			first := ctx.q.sort[0]
			if first.Col != r.offset+rangeCol {
				return nil, ctx.unboundedRelation(r)
			}
		}
		fields = append(fields, sortCols...)
	} else if len(ctx.q.sort) > 0 {
		// Sort references other relations; with a bare limit hint we
		// cannot fetch "the right" K rows before sorting.
		return nil, ctx.unboundedRelation(r)
	} else if rangeCol >= 0 {
		fields = append(fields, schema.IndexField{Column: r.colName(rangeCol)})
	}
	ix, reversed := ctx.ensureIndex(r.table, fields, len(eq))
	scan := &IndexScan{
		Table:       r.table,
		TableOffset: r.offset,
		Index:       ix,
		Eq:          eq,
		Lower:       lower,
		Upper:       upper,
		Ascending:   !reversed,
		LimitHint:   ctx.q.stopK,
		NeedDeref:   !ix.Primary,
	}
	ctx.ordered = sortSatisfied
	return scan, nil
}

// tighterBound merges a second bound b of predicate p into one side of a
// limit-hint scan's range, have (nil before the first): the scan reads
// one section, and a bound it dropped could not become a residual — under
// the limit hint that returns short pages. Of two constants the tighter
// wins (dir 1 keeps the larger lower bound, -1 the smaller upper one), at
// equal values the exclusive one; a parameter cannot be ordered before it
// is bound, so it is refused.
func (ctx *phase2Ctx) tighterBound(r *rel, p LocalPred, have, b *RangeBound, dir int) (*RangeBound, error) {
	if have == nil {
		return b, nil
	}
	if have.Expr.kind != keyConst || b.Expr.kind != keyConst {
		return nil, &NotScaleIndependentError{
			Query:   ctx.q.stmt.String(),
			Segment: fmt.Sprintf("access to relation %s (%s)", r.ref.Name(), describePreds(r)),
			Reason:  fmt.Sprintf("two bounds on one side of column %s, a parameter among them: which is tighter is unknown until run time", p.name),
			Suggestions: []string{
				fmt.Sprintf("keep one lower and one upper bound on %s", p.name),
			},
		}
	}
	if c := value.Compare(b.Expr.constant, have.Expr.constant) * dir; c > 0 || c == 0 && !b.Inclusive {
		return b, nil
	}
	return have, nil
}

// --- joined relation access ---

func (ctx *phase2Ctx) matchJoin(child Physical, r *rel) (Physical, error) {
	if len(r.joinPreds) == 0 {
		return nil, &NotScaleIndependentError{
			Query:   ctx.q.stmt.String(),
			Segment: "relation " + r.ref.Name(),
			Reason:  "relation has no join predicate linking it to the rest of the plan",
			Suggestions: []string{
				"add an equality join predicate",
			},
		}
	}
	// IndexFKJoin: join columns (plus constant equalities) cover the
	// target primary key, so each child row matches at most one record.
	if plan, ok := ctx.tryFKJoin(child, r); ok {
		return plan, nil
	}
	// SortedIndexJoin (sort+stop flavor): the query's sort is entirely on
	// this relation and a stop exists; pre-sorted composite index entries
	// let us fetch only the top-K per join key.
	if plan, ok := ctx.trySortedJoin(child, r); ok {
		return plan, nil
	}
	// SortedIndexJoin (cardinality flavor): the schema bounds tuples per
	// join key; fetch them all and filter/sort locally.
	if r.dataStopCard > 0 {
		return ctx.cardBoundedJoin(child, r)
	}
	return nil, ctx.unboundedJoin(r)
}

func (ctx *phase2Ctx) tryFKJoin(child Physical, r *rel) (Physical, bool) {
	pick := keyPick{r: r}
	var keys KeySpec
	for _, pk := range r.table.PrimaryKey {
		p, ok := pick.take(r.table.ColumnIndex(pk), false)
		if !ok {
			return nil, false
		}
		keys = append(keys, p.RHS)
	}
	// A 1:1 join preserves the child's ordering; ctx.ordered unchanged.
	return &IndexFKJoin{
		ChildPlan:   child,
		Table:       r.table,
		TableOffset: r.offset,
		Keys:        keys,
		Residual:    shiftPreds(pick.rest(), r.offset),
	}, true
}

// joinPrefix is the equality prefix of a sorted join's index: one
// component per column, join columns first, then the columns of eqs.
func joinPrefix(pick *keyPick, eqs []LocalPred) (fields []schema.IndexField, jk KeySpec) {
	add := func(ci int) {
		if p, ok := pick.take(ci, false); ok {
			fields = append(fields, schema.IndexField{Column: pick.r.colName(ci)})
			jk = append(jk, p.RHS)
		}
	}
	for _, jp := range pick.r.joinPreds {
		add(jp.col)
	}
	for _, p := range eqs {
		add(p.Col)
	}
	return fields, jk
}

// trySortedJoin matches the thoughtstream pattern: ORDER BY columns all
// on r, a stop above that may limit r's fetch, and no residual
// predicates on r outside the index.
func (ctx *phase2Ctx) trySortedJoin(child Physical, r *rel) (Physical, bool) {
	if !ctx.stopLimitsFetch(r) || len(ctx.q.sort) == 0 {
		return nil, false
	}
	sortCols, ok := ctx.sortOnRelation(r)
	if !ok {
		return nil, false
	}
	pick := keyPick{r: r}
	fields, jk := joinPrefix(&pick, r.eqPreds)
	// Anything left for a residual (IN lists, !=, inequalities, tokens, a
	// second equality on a column) would invalidate the per-key top-K
	// shortcut.
	if len(pick.rest()) > 0 {
		return nil, false
	}
	fields = append(fields, sortCols...)
	ix, reversed := ctx.ensureIndex(r.table, fields, len(jk))
	ctx.ordered = true
	// Every later join keeps each row and its order and nothing regroups
	// them (stopLimitsFetch), so the first stopK rows of the merge are the
	// page.
	return &SortedIndexJoin{
		ChildPlan:   child,
		Table:       r.table,
		TableOffset: r.offset,
		Index:       ix,
		JoinKey:     jk,
		PerKeyLimit: ctx.q.stopK,
		Stop:        ctx.q.stopK,
		Ascending:   !reversed,
		MergeSort:   ctx.q.sort,
		NeedDeref:   !ix.Primary,
	}, true
}

// cardBoundedJoin fetches all (at most dataStopCard) matches per join
// key and applies the remaining predicates locally.
func (ctx *phase2Ctx) cardBoundedJoin(child Physical, r *rel) (Physical, error) {
	pick := keyPick{r: r}
	fields, jk := joinPrefix(&pick, r.belowPreds)
	ix, reversed := ctx.ensureIndex(r.table, fields, len(jk))
	ctx.ordered = false // per-key fetch order is not the query order
	join := &SortedIndexJoin{
		ChildPlan:   child,
		Table:       r.table,
		TableOffset: r.offset,
		Index:       ix,
		JoinKey:     jk,
		PerKeyLimit: r.dataStopCard,
		Ascending:   !reversed,
		Residual:    shiftPreds(pick.rest(), r.offset),
		NeedDeref:   !ix.Primary,
	}
	return join, nil
}

// --- helpers ---

// shiftPreds rebases relation-local predicate column indexes onto the
// combined row. Predicates attached to a rel during binding index the
// relation's own columns (phase I/II match them against the table), but
// an operator's Residual is evaluated at runtime against the combined
// row, where this relation's columns start at offset. Without the shift
// a residual on any relation other than the one at offset 0 silently
// compares the wrong column.
func shiftPreds(preds []LocalPred, offset int) []LocalPred {
	if offset == 0 || len(preds) == 0 {
		return preds
	}
	out := make([]LocalPred, len(preds))
	for i, p := range preds {
		p.Col += offset
		out[i] = p
	}
	return out
}

// sortOnRelation returns the ORDER BY columns as index fields when every
// sort column belongs to relation r.
func (ctx *phase2Ctx) sortOnRelation(r *rel) ([]schema.IndexField, bool) {
	if len(ctx.q.sort) == 0 {
		return nil, false
	}
	var fields []schema.IndexField
	for _, k := range ctx.q.sort {
		ci := k.Col - r.offset
		if ci < 0 || ci >= len(r.table.Columns) {
			return nil, false
		}
		fields = append(fields, schema.IndexField{Column: r.colName(ci), Desc: k.Desc})
	}
	return fields, true
}

// ensureIndex finds or names an index serving the given fields, of
// which the first prefixLen components are bound by equality (their
// direction is irrelevant). An existing index — including the table's
// primary index — whose suffix directions are all inverted serves the
// same scan in reverse, e.g. thoughts' primary key (owner, timestamp)
// scanned backwards yields ORDER BY timestamp DESC per owner.
//
// Ready indexes are preferred over building ones: a building index is
// maintained by the write path but not yet fully backfilled, so a plan
// that selects it only runs after engine.ensureBuilt flips it ready.
// When nothing serves the scan the index is only constructed: it joins
// ctx.required, where a later scan of the same plan finds it again, and
// the catalog hears of it from whoever registers Plan.RequiredIndexes.
func (ctx *phase2Ctx) ensureIndex(t *schema.Table, fields []schema.IndexField, prefixLen int) (*schema.Index, bool) {
	fields = ctx.completeWithPK(t, fields)
	var building *schema.Index
	var buildingRev bool
	for _, ixs := range [2][]*schema.Index{ctx.cat.Indexes(t.Name), ctx.required} {
		for _, ix := range ixs {
			if !strings.EqualFold(ix.Table, t.Name) {
				continue
			}
			rev := false
			if !matchIndex(ix, fields, prefixLen, false) {
				if !matchIndex(ix, fields, prefixLen, true) {
					continue
				}
				rev = true
			}
			if ctx.cat.IndexState(ix) == schema.StateReady {
				ctx.noteRequired(ix)
				return ix, rev
			}
			if building == nil {
				building, buildingRev = ix, rev
			}
		}
	}
	if building != nil {
		ctx.noteRequired(building)
		return building, buildingRev
	}
	name := fmt.Sprintf("auto_%s_%s", strings.ToLower(t.Name), fieldsSlug(fields))
	ix := &schema.Index{Name: name, Table: t.Name, Fields: fields}
	ctx.required = append(ctx.required, ix)
	return ix, false
}

// matchIndex reports whether ix serves a scan over fields: identical
// columns/token flags throughout; equal suffix directions (or, with
// reversed, all-inverted suffix directions, served by a backward scan).
// Directions within the equality prefix never matter.
func matchIndex(ix *schema.Index, fields []schema.IndexField, prefixLen int, reversed bool) bool {
	if len(ix.Fields) != len(fields) {
		return false
	}
	for i, f := range fields {
		g := ix.Fields[i]
		if g.Token != f.Token || !strings.EqualFold(g.Column, f.Column) {
			return false
		}
		if i < prefixLen {
			continue
		}
		want := f.Desc
		if reversed {
			want = !want
		}
		if g.Desc != want {
			return false
		}
	}
	return true
}

// completeWithPK appends any missing primary key columns so index
// entries are unique and dereferenceable.
func (ctx *phase2Ctx) completeWithPK(t *schema.Table, fields []schema.IndexField) []schema.IndexField {
	have := make(map[string]bool)
	for _, f := range fields {
		if !f.Token {
			have[strings.ToLower(f.Column)] = true
		}
	}
	out := append([]schema.IndexField{}, fields...)
	for _, pk := range t.PrimaryKey {
		if !have[strings.ToLower(pk)] {
			out = append(out, schema.IndexField{Column: pk})
		}
	}
	return out
}

func fieldsSlug(fields []schema.IndexField) string {
	parts := make([]string, len(fields))
	for i, f := range fields {
		s := strings.ToLower(f.Column)
		if f.Token {
			s = "tok_" + s
		}
		if f.Desc {
			s += "_desc"
		}
		parts[i] = s
	}
	return strings.Join(parts, "_")
}

func (ctx *phase2Ctx) noteRequired(ix *schema.Index) {
	for _, e := range ctx.required {
		if e == ix {
			return
		}
	}
	ctx.required = append(ctx.required, ix)
}

// --- assistant feedback ---

func (ctx *phase2Ctx) unboundedRelation(r *rel) error {
	var buf [8]string
	eqCols := eqColNames(buf[:0], r, true)
	sug := []string{}
	if len(eqCols) > 0 {
		sug = append(sug, fmt.Sprintf("add `CARDINALITY LIMIT n (%s)` to table %s so the matching tuples are bounded",
			strings.Join(eqCols, ", "), r.table.Name))
	}
	if ctx.q.stopK == 0 {
		sug = append(sug, "add a LIMIT or PAGINATE clause to bound the result size")
	}
	if hasOp(r, parser.OpLike) {
		sug = append(sug, "rewrite the LIKE predicate as a tokenized search with CONTAINS (served by an inverted full-text index)")
	}
	if hasOp(r, parser.OpNe) {
		sug = append(sug, "inequality (!=) predicates cannot bound an index section; combine them with a cardinality constraint")
	}
	if len(sug) == 0 {
		sug = append(sug, "add an equality predicate on an indexed column, plus a LIMIT or PAGINATE clause")
	}
	return &NotScaleIndependentError{
		Query:       ctx.q.stmt.String(),
		Segment:     fmt.Sprintf("access to relation %s (%s)", r.ref.Name(), describePreds(r)),
		Reason:      "the number of tuples produced by this relation has no compile-time bound",
		Suggestions: sug,
	}
}

func (ctx *phase2Ctx) unboundedJoin(r *rel) error {
	var joinCols []string
	for _, jp := range r.joinPreds {
		joinCols = append(joinCols, r.table.Columns[jp.col].Name)
	}
	sug := []string{
		fmt.Sprintf("add `CARDINALITY LIMIT n (%s)` to table %s to bound tuples per join key",
			strings.Join(joinCols, ", "), r.table.Name),
	}
	if ctx.q.stopK == 0 {
		sug = append(sug, "add a LIMIT or PAGINATE clause; with an ORDER BY on the joined relation the compiler can use a pre-sorted composite index (SortedIndexJoin)")
	}
	return &NotScaleIndependentError{
		Query:       ctx.q.stmt.String(),
		Segment:     fmt.Sprintf("join into relation %s on (%s)", r.ref.Name(), strings.Join(joinCols, ", ")),
		Reason:      "the number of tuples produced per join key has no compile-time bound",
		Suggestions: sug,
	}
}

func hasOp(r *rel, op parser.CompareOp) bool {
	for _, p := range append(append([]LocalPred{}, r.eqPreds...), r.otherPreds...) {
		if p.Op == op {
			return true
		}
	}
	return false
}

func describePreds(r *rel) string {
	var parts []string
	for _, p := range append(append([]LocalPred{}, r.eqPreds...), r.otherPreds...) {
		parts = append(parts, p.String())
	}
	if len(parts) == 0 {
		return "no predicates"
	}
	return strings.Join(parts, " AND ")
}
